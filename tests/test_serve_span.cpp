// Span ingest against per-record ingest (DESIGN.md §13): seeded random
// record streams go through TelemetryStore::ingest_span cut at random chunk
// boundaries on one store and through ingest() one record at a time on
// another. The streams hold runs of one site that cross publish boundaries,
// invalid and out-of-range records, late records beyond the retention
// window and records for site ids the store does not have. After every
// chunk both stores must have published equally often, and every shard's
// newest snapshot must be bit-identical: seq, site fields, window epochs,
// Welford bits, sketch buckets, sum/min/max and top-k.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/store.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

void push_stats(std::vector<std::uint64_t>& bits, const stats::OnlineStats& s) {
  bits.push_back(s.count());
  bits.push_back(std::bit_cast<std::uint64_t>(s.mean()));
  bits.push_back(std::bit_cast<std::uint64_t>(s.variance()));
  bits.push_back(std::bit_cast<std::uint64_t>(s.min()));
  bits.push_back(std::bit_cast<std::uint64_t>(s.max()));
}

void push_sketch(std::vector<std::uint64_t>& bits, const HistogramSketch& s) {
  bits.push_back(s.count());
  bits.push_back(s.zero_count());
  bits.push_back(std::bit_cast<std::uint64_t>(s.sum()));
  bits.push_back(std::bit_cast<std::uint64_t>(s.min()));
  bits.push_back(std::bit_cast<std::uint64_t>(s.max()));
  bits.push_back(s.stored_buckets());
  for (std::size_t b = 0; b < s.config().bucket_count; ++b) {
    bits.push_back(s.bucket_count_at(b));
  }
}

// Every field of a shard snapshot as raw bits.
std::vector<std::uint64_t> shard_bits(const ShardSnapshot& snap) {
  std::vector<std::uint64_t> bits{snap.seq};
  push_sketch(bits, snap.voltage);
  push_sketch(bits, snap.latency);
  push_stats(bits, snap.voltage_stats);
  push_stats(bits, snap.latency_stats);
  bits.push_back(snap.top_droop.size());
  for (const TopKDroop::Entry& e : snap.top_droop) {
    bits.push_back(e.site);
    bits.push_back(std::bit_cast<std::uint64_t>(e.droop));
  }
  for (const auto& site : snap.sites) {
    const SiteSnapshot& s = *site;
    bits.insert(bits.end(),
                {s.site, s.latest.seq,
                 std::bit_cast<std::uint64_t>(s.latest.timestamp.value()),
                 std::bit_cast<std::uint64_t>(s.latest.volts),
                 s.latest.in_range ? 1u : 0u, s.ingested, s.out_of_range,
                 s.invalid, s.latest_epoch, s.windows.size()});
    for (const WindowSlot& slot : s.windows) {
      bits.push_back(slot.epoch);
      push_stats(bits, slot.stats);
      push_sketch(bits, slot.sketch);
    }
  }
  return bits;
}

class SpanDifferential {
 public:
  SpanDifferential(std::uint64_t seed, std::size_t max_chunk_factor)
      : rng_(seed) {
    StoreConfig config;
    config.site_count = 1 + rng_.uniform_index(24);
    config.shards = 1 + rng_.uniform_index(4);
    config.publish_every = 1 + rng_.uniform_index(48);
    config.window = WindowConfig{Picoseconds{1000.0}, 4,
                                 SketchConfig{0.01, 0.5, 48}};
    config.top_k = 1 + rng_.uniform_index(4);
    per_record_ = std::make_unique<TelemetryStore>(config);
    span_ = std::make_unique<TelemetryStore>(config);
    sites_ = config.site_count;
    publish_every_ = per_record_->config().publish_every;
    max_chunk_ = std::max<std::size_t>(1, publish_every_ * max_chunk_factor);
    times_.assign(sites_, 0.0);
  }

  // Checks after every chunk. With chunks no longer than publish_every a
  // shard publishes at most once per chunk, so every publish is compared.
  void run(std::size_t records) {
    const std::vector<IngestRecord> stream = make_stream(records);
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min(stream.size() - off,
                                     1 + rng_.uniform_index(max_chunk_));
      feed(stream.data() + off, n);
      off += n;
      if (rng_.uniform01() < 0.05) {
        const std::size_t shard =
            rng_.uniform_index(per_record_->config().shards);
        per_record_->publish(shard);
        span_->publish(shard);
      }
      compare();
      if (::testing::Test::HasFatalFailure()) return;
    }
    per_record_->publish_all();
    span_->publish_all();
    compare();
  }

 private:
  double next_time(std::uint32_t site) {
    double& t = times_[site];
    const double u = rng_.uniform01();
    if (u < 0.6) {
      t += rng_.uniform(0.0, 300.0);
    } else if (u < 0.8) {
      t += 1000.0;
    } else if (u < 0.9) {
      t += 1000.0 * static_cast<double>(2 + rng_.uniform_index(12));
    } else {
      // Late: within the retention window or beyond it.
      return std::max(0.0, t - rng_.uniform(0.0, 7000.0));
    }
    return t;
  }

  std::vector<IngestRecord> make_stream(std::size_t records) {
    std::vector<IngestRecord> out;
    while (out.size() < records) {
      if (rng_.uniform01() < 0.01) {
        IngestRecord bad;
        bad.site = static_cast<std::uint32_t>(sites_ + rng_.uniform_index(4));
        out.push_back(bad);
        continue;
      }
      // A run of one site, sometimes longer than publish_every.
      const auto site = static_cast<std::uint32_t>(rng_.uniform_index(sites_));
      const std::size_t run = rng_.uniform01() < 0.2
                                  ? 1 + rng_.uniform_index(2 * publish_every_)
                                  : 1 + rng_.uniform_index(6);
      const double latency = rng_.uniform(0.01, 5.0);
      for (std::size_t r = 0; r < run; ++r) {
        IngestRecord rec;
        rec.site = site;
        rec.timestamp = Picoseconds{next_time(site)};
        const double v = rng_.uniform01();
        rec.volts = v < 0.05 ? 0.0 : 0.3 + 2.2 * v;
        rec.latency_us = rng_.uniform01() < 0.7 ? latency
                                                : rng_.uniform(0.0, 5.0);
        rec.in_range = rng_.uniform01() < 0.8;
        rec.valid = rng_.uniform01() < 0.85;
        out.push_back(rec);
      }
    }
    out.resize(records);
    return out;
  }

  void feed(const IngestRecord* records, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (records[i].site >= sites_) {
        EXPECT_THROW(per_record_->ingest(records[i]), std::logic_error);
      } else {
        per_record_->ingest(records[i]);
      }
    }
    // A bad site id throws after the records before it were ingested; the
    // caller resumes after it.
    std::size_t i = 0;
    while (i < n) {
      const auto bad = std::find_if(
          records + i, records + n,
          [&](const IngestRecord& r) { return r.site >= sites_; });
      const auto good = static_cast<std::size_t>(bad - records) - i;
      if (bad == records + n) {
        span_->ingest_span(records + i, good);
        return;
      }
      const std::uint64_t before = span_->total_ingested();
      EXPECT_THROW(span_->ingest_span(records + i, n - i), std::logic_error);
      EXPECT_EQ(span_->total_ingested() - before, good);
      i += good + 1;
    }
  }

  void compare() {
    ASSERT_EQ(span_->publishes(), per_record_->publishes());
    ASSERT_EQ(span_->total_ingested(), per_record_->total_ingested());
    const StoreView a = per_record_->snapshot();
    const StoreView b = span_->snapshot();
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      ASSERT_EQ(a.shards[s] == nullptr, b.shards[s] == nullptr);
      if (!a.shards[s]) continue;
      ASSERT_EQ(shard_bits(*a.shards[s]), shard_bits(*b.shards[s]));
    }
  }

  stats::Xoshiro256 rng_;
  std::unique_ptr<TelemetryStore> per_record_;
  std::unique_ptr<TelemetryStore> span_;
  std::size_t sites_ = 1;
  std::size_t publish_every_ = 1;
  std::size_t max_chunk_ = 1;
  std::vector<double> times_;
};

TEST(ServeSpanDifferential, SpanIngestMatchesPerRecordAtEveryPublish) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SpanDifferential diff(seed, 1);
    diff.run(1500);
    if (HasFatalFailure()) return;
  }
}

// Chunks up to 8 publish intervals long (the grid pops 256 records at a
// time against publish_every 1024, but a small publish_every makes one
// chunk cross several boundaries): compared at chunk ends.
TEST(ServeSpanDifferential, LongChunksMatchPerRecordAtChunkEnds) {
  for (std::uint64_t seed = 101; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SpanDifferential diff(seed, 8);
    diff.run(1500);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace psnt::serve
