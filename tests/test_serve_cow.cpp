// Copy-on-write snapshot publication (DESIGN.md §13): a publish rebuilds
// only the sites ingested since the shard's previous publish and shares the
// rest, pinned views stay bit-identical however far the writer runs ahead,
// and the first publish covers every site. The differential property test
// replays seeded random streams into the store and into a test-local
// reference (one WindowRing plus counters per site) and compares every
// published site field by field after every publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/query.h"
#include "serve/rollup_window.h"
#include "serve/store.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

StoreConfig small_config(std::size_t sites, std::size_t shards,
                         std::size_t publish_every) {
  StoreConfig config;
  config.site_count = sites;
  config.shards = shards;
  config.publish_every = publish_every;
  config.window = WindowConfig{Picoseconds{1000.0}, 4,
                               SketchConfig{0.01, 0.5, 48}};
  config.top_k = 3;
  return config;
}

IngestRecord record(std::uint32_t site, double t_ps, double volts) {
  IngestRecord rec;
  rec.site = site;
  rec.timestamp = Picoseconds{t_ps};
  rec.volts = volts;
  rec.latency_us = 0.2;
  return rec;
}

std::shared_ptr<const SiteSnapshot> site_ptr(const StoreView& view,
                                             const TelemetryStore& store,
                                             std::uint32_t site) {
  const auto& shard = view.shards[store.shard_of(site)];
  if (!shard) return nullptr;
  return shard->sites[site / store.config().shards];
}

TEST(ServeCopyOnWrite, CleanSitesShareTouchedSitesRebuild) {
  TelemetryStore store{small_config(6, 2, 1 << 20)};
  for (std::uint32_t site = 0; site < 6; ++site) {
    store.ingest(record(site, 100.0, 0.9));
  }
  store.publish_all();
  const StoreView before = store.snapshot();

  store.ingest(record(2, 200.0, 0.8));  // shard 0
  store.ingest(record(3, 200.0, 0.7));  // shard 1
  store.publish_all();
  const StoreView after = store.snapshot();

  for (std::uint32_t site = 0; site < 6; ++site) {
    const auto old_ptr = site_ptr(before, store, site);
    const auto new_ptr = site_ptr(after, store, site);
    ASSERT_NE(old_ptr, nullptr);
    ASSERT_NE(new_ptr, nullptr);
    if (site == 2 || site == 3) {
      EXPECT_NE(old_ptr.get(), new_ptr.get()) << "site " << site;
      EXPECT_EQ(new_ptr->ingested, 2u);
    } else {
      EXPECT_EQ(old_ptr.get(), new_ptr.get()) << "site " << site;
    }
  }
  EXPECT_DOUBLE_EQ(site_ptr(before, store, 2)->latest.volts, 0.9);
  EXPECT_DOUBLE_EQ(site_ptr(after, store, 2)->latest.volts, 0.8);

  // A publish with nothing ingested shares every site.
  store.publish_all();
  const StoreView idle = store.snapshot();
  for (std::uint32_t site = 0; site < 6; ++site) {
    EXPECT_EQ(site_ptr(after, store, site).get(),
              site_ptr(idle, store, site).get());
  }
}

// Every field of a site, as raw bits, so a comparison is bit-exact.
std::vector<std::uint64_t> site_bits(const SiteSnapshot& s) {
  std::vector<std::uint64_t> bits{
      s.site,
      s.latest.seq,
      std::bit_cast<std::uint64_t>(s.latest.timestamp.value()),
      std::bit_cast<std::uint64_t>(s.latest.volts),
      s.latest.in_range ? 1u : 0u,
      s.ingested,
      s.out_of_range,
      s.invalid,
      s.latest_epoch};
  for (const WindowSlot& slot : s.windows) {
    bits.push_back(slot.epoch);
    bits.push_back(slot.stats.count());
    bits.push_back(std::bit_cast<std::uint64_t>(slot.stats.mean()));
    bits.push_back(std::bit_cast<std::uint64_t>(slot.stats.variance()));
    bits.push_back(slot.sketch.count());
    bits.push_back(slot.sketch.zero_count());
    bits.push_back(std::bit_cast<std::uint64_t>(slot.sketch.sum()));
    for (std::size_t b = 0; b < slot.sketch.config().bucket_count; ++b) {
      bits.push_back(slot.sketch.bucket_count_at(b));
    }
  }
  return bits;
}

TEST(ServeCopyOnWrite, PinnedViewStaysBitIdentical) {
  constexpr std::uint32_t kSites = 5;
  TelemetryStore store{small_config(kSites, 2, 3)};
  stats::Xoshiro256 rng(4242);
  for (std::uint32_t k = 0; k < 40; ++k) {
    store.ingest(record(k % kSites, 250.0 * k, 0.6 + 0.5 * rng.uniform01()));
  }
  store.publish_all();

  const QueryEngine pinned(store);
  std::vector<std::vector<std::uint64_t>> expected;
  for (std::uint32_t site = 0; site < kSites; ++site) {
    ASSERT_NE(pinned.site(site), nullptr);
    expected.push_back(site_bits(*pinned.site(site)));
  }
  const std::uint64_t pinned_seq = pinned.published_seq();
  const std::uint64_t publishes_before = store.publishes();

  for (std::uint32_t k = 0; k < 1000; ++k) {
    store.ingest(record(k % kSites, 10000.0 + 700.0 * k,
                        0.6 + 0.5 * rng.uniform01()));
    if (k % 4 == 0) store.publish_all();
  }
  store.publish_all();
  EXPECT_GE(store.publishes() - publishes_before, 500u);

  EXPECT_EQ(pinned.published_seq(), pinned_seq);
  for (std::uint32_t site = 0; site < kSites; ++site) {
    EXPECT_EQ(site_bits(*pinned.site(site)), expected[site])
        << "site " << site;
  }
  const QueryEngine fresh(store);
  EXPECT_EQ(fresh.published_seq(), pinned_seq + 1000);
}

TEST(ServeCopyOnWrite, FirstPublishCoversEverySite) {
  TelemetryStore store{small_config(10, 3, 1 << 20)};
  {
    const QueryEngine unpublished(store);
    EXPECT_EQ(unpublished.site(4), nullptr);
  }
  store.ingest(record(4, 100.0, 0.85));
  store.publish_all();

  const QueryEngine query(store);
  for (std::uint32_t site = 0; site < 10; ++site) {
    const SiteSnapshot* snap = query.site(site);
    ASSERT_NE(snap, nullptr) << "site " << site;
    EXPECT_EQ(snap->site, site);
    EXPECT_EQ(snap->windows.size(), 4u);
    if (site == 4) {
      EXPECT_EQ(snap->latest.seq, 1u);
      continue;
    }
    EXPECT_EQ(snap->latest.seq, 0u);
    EXPECT_EQ(snap->ingested, 0u);
    EXPECT_EQ(snap->latest_epoch, WindowSlot::kNoEpoch);
    EXPECT_FALSE(query.latest(site).has_value());
  }

  // A shard whose first publish comes before any ingest covers its sites
  // as well.
  TelemetryStore idle{small_config(4, 2, 1 << 20)};
  idle.publish(1);
  const StoreView view = idle.snapshot();
  ASSERT_NE(view.shards[1], nullptr);
  ASSERT_EQ(view.shards[1]->sites.size(), 2u);
  EXPECT_EQ(view.shards[1]->sites[0]->site, 1u);
  EXPECT_EQ(view.shards[1]->sites[1]->site, 3u);
}

// --- Differential property test ------------------------------------------

struct RefSite {
  explicit RefSite(const WindowConfig& config) : windows(config) {}

  WindowRing windows;
  SiteLatest latest;
  std::uint64_t ingested = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t invalid = 0;
  bool touched = false;  // ingested since its shard's last publish
};

void apply(RefSite& ref, const IngestRecord& rec) {
  ++ref.ingested;
  ref.touched = true;
  if (!rec.valid) {
    ++ref.invalid;
    return;
  }
  ref.latest.seq = ref.ingested;
  ref.latest.timestamp = rec.timestamp;
  ref.latest.volts = rec.volts;
  ref.latest.in_range = rec.in_range;
  if (!rec.in_range) ++ref.out_of_range;
  ref.windows.add(rec.timestamp, rec.volts);
}

void expect_site_matches(const SiteSnapshot& got, const RefSite& ref,
                         std::uint32_t site) {
  SCOPED_TRACE("site " + std::to_string(site));
  EXPECT_EQ(got.site, site);
  EXPECT_EQ(got.ingested, ref.ingested);
  EXPECT_EQ(got.out_of_range, ref.out_of_range);
  EXPECT_EQ(got.invalid, ref.invalid);
  EXPECT_EQ(got.latest.seq, ref.latest.seq);
  EXPECT_EQ(got.latest.timestamp.value(), ref.latest.timestamp.value());
  EXPECT_EQ(got.latest.volts, ref.latest.volts);
  EXPECT_EQ(got.latest.in_range, ref.latest.in_range);
  EXPECT_EQ(got.latest_epoch, ref.windows.latest_epoch());
  ASSERT_EQ(got.windows.size(), ref.windows.window_count());
  for (std::size_t i = 0; i < got.windows.size(); ++i) {
    const WindowSlot& a = got.windows[i];
    const WindowSlot& b = ref.windows.slot(i);
    EXPECT_EQ(a.epoch, b.epoch) << "slot " << i;
    EXPECT_EQ(a.stats.count(), b.stats.count()) << "slot " << i;
    EXPECT_EQ(a.stats.mean(), b.stats.mean()) << "slot " << i;
    EXPECT_EQ(a.sketch.count(), b.sketch.count()) << "slot " << i;
    EXPECT_EQ(a.sketch.zero_count(), b.sketch.zero_count()) << "slot " << i;
    for (std::size_t k = 0; k < a.sketch.config().bucket_count; ++k) {
      ASSERT_EQ(a.sketch.bucket_count_at(k), b.sketch.bucket_count_at(k))
          << "slot " << i << " bucket " << k;
    }
  }
}

class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {
    const std::size_t sites = 1 + rng_.uniform_index(24);
    const std::size_t shards = 1 + rng_.uniform_index(4);
    const std::size_t publish_every = 1 + rng_.uniform_index(64);
    store_ = std::make_unique<TelemetryStore>(
        small_config(sites, shards, publish_every));
    shards_ = store_->config().shards;
    for (std::size_t s = 0; s < sites; ++s) {
      refs_.emplace_back(store_->config().window);
      times_.push_back(rng_.uniform(0.0, 3000.0));
    }
    shard_seq_.assign(shards_, 0);
    previous_.resize(shards_);
    // A random non-empty subset of sites receives records.
    for (std::uint32_t s = 0; s < sites; ++s) {
      if (rng_.uniform01() < 0.6) active_.push_back(s);
    }
    if (active_.empty()) {
      active_.push_back(static_cast<std::uint32_t>(rng_.uniform_index(sites)));
    }
  }

  void run(std::size_t records) {
    for (std::size_t n = 0; n < records; ++n) {
      step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    store_->publish_all();
    for (std::size_t s = 0; s < shards_; ++s) verify_shard(s);
  }

 private:
  double next_time(std::uint32_t site) {
    double& t = times_[site];
    const double u = rng_.uniform01();
    if (u < 0.55) {
      t += rng_.uniform(0.0, 300.0);  // mostly within the window
    } else if (u < 0.75) {
      t += 1000.0;  // rotate into the next window
    } else if (u < 0.85) {
      t += 1000.0 * static_cast<double>(2 + rng_.uniform_index(3));  // skip
    } else if (u < 0.90) {
      t += 1000.0 * static_cast<double>(5 + rng_.uniform_index(10));  // gap
    } else {
      // Late sample: inside or beyond the retention horizon.
      return std::max(0.0, t - rng_.uniform(0.0, 6000.0));
    }
    return t;
  }

  void step() {
    const std::size_t sites = store_->config().site_count;
    if (rng_.uniform01() < 0.02) {
      // Out-of-range site id: rejected before any state changes.
      IngestRecord bad = record(
          static_cast<std::uint32_t>(sites + rng_.uniform_index(8)), 0.0,
          1.0);
      const std::uint64_t publishes = store_->publishes();
      EXPECT_THROW(store_->ingest(bad), std::logic_error);
      EXPECT_EQ(store_->publishes(), publishes);
      return;
    }
    if (rng_.uniform01() < 0.03) {
      const std::size_t shard = rng_.uniform_index(shards_);
      store_->publish(shard);
      verify_shard(shard);
      return;
    }

    const std::uint32_t site =
        active_[static_cast<std::size_t>(rng_.uniform_index(active_.size()))];
    IngestRecord rec;
    rec.site = site;
    rec.timestamp = Picoseconds{next_time(site)};
    const double v = rng_.uniform01();
    rec.volts = v < 0.05 ? 0.0 : 0.3 + 2.2 * v;  // some land in the zero bucket
    rec.latency_us = rng_.uniform(0.01, 5.0);
    rec.in_range = rng_.uniform01() < 0.8;
    rec.valid = rng_.uniform01() < 0.85;

    const std::uint64_t publishes = store_->publishes();
    store_->ingest(rec);
    apply(refs_[site], rec);
    const std::size_t shard = store_->shard_of(site);
    ++shard_seq_[shard];
    if (store_->publishes() != publishes) verify_shard(shard);
  }

  void verify_shard(std::size_t shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    const StoreView view = store_->snapshot();
    const auto& snap = view.shards[shard];
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->seq, shard_seq_[shard]);
    const std::size_t sites = store_->config().site_count;
    const std::size_t local = (sites - shard + shards_ - 1) / shards_;
    ASSERT_EQ(snap->sites.size(), local);

    const QueryEngine query(*store_);
    const auto& prev = previous_[shard];
    for (std::size_t k = 0; k < local; ++k) {
      const auto site = static_cast<std::uint32_t>(shard + k * shards_);
      RefSite& ref = refs_[site];
      ASSERT_NE(snap->sites[k], nullptr);
      expect_site_matches(*snap->sites[k], ref, site);
      EXPECT_EQ(query.site(site), snap->sites[k].get());
      if (prev) {
        // `prev` keeps the old objects alive, so equal addresses mean the
        // very same object was shared.
        if (ref.touched) {
          EXPECT_NE(snap->sites[k].get(), prev->sites[k].get());
        } else {
          EXPECT_EQ(snap->sites[k].get(), prev->sites[k].get());
        }
      }
      ref.touched = false;
    }
    previous_[shard] = snap;
  }

  stats::Xoshiro256 rng_;
  std::unique_ptr<TelemetryStore> store_;
  std::size_t shards_ = 1;
  std::vector<RefSite> refs_;
  std::vector<double> times_;
  std::vector<std::uint32_t> active_;
  std::vector<std::uint64_t> shard_seq_;
  std::vector<std::shared_ptr<const ShardSnapshot>> previous_;
};

TEST(ServeDifferential, RandomStreamsMatchReferenceAfterEveryPublish) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential diff(seed);
    diff.run(800);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace psnt::serve
