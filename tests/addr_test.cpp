// Unit tests for addresses, interval blocks and allocation tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "addr/address_block.hpp"
#include "addr/allocation_table.hpp"
#include "addr/ip_address.hpp"
#include "core/qip_types.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

TEST(IpAddress, Formatting) {
  EXPECT_EQ(IpAddress(10, 0, 1, 200).to_string(), "10.0.1.200");
  EXPECT_EQ(IpAddress(0).to_string(), "0.0.0.0");
  EXPECT_EQ(kPoolBase.to_string(), "10.0.0.0");
}

TEST(IpAddress, OrderingAndSuccessor) {
  const IpAddress a(10, 0, 0, 255);
  EXPECT_LT(a, a.next());
  EXPECT_EQ(a.next().to_string(), "10.0.1.0");
  EXPECT_EQ(a.next().prev(), a);
}

// ---------------------------------------------------------------------------
// AddressBlock
// ---------------------------------------------------------------------------

TEST(AddressBlock, ContiguousBasics) {
  const auto b = AddressBlock::contiguous(kPoolBase, 256);
  EXPECT_EQ(b.size(), 256u);
  EXPECT_EQ(b.lowest(), kPoolBase);
  EXPECT_EQ(b.highest().to_string(), "10.0.0.255");
  EXPECT_TRUE(b.contains(IpAddress(10, 0, 0, 128)));
  EXPECT_FALSE(b.contains(IpAddress(10, 0, 1, 0)));
}

TEST(AddressBlock, InsertCoalesces) {
  AddressBlock b;
  b.insert(IpAddress(10, 0, 0, 1));
  b.insert(IpAddress(10, 0, 0, 3));
  EXPECT_EQ(b.ranges().size(), 2u);
  b.insert(IpAddress(10, 0, 0, 2));  // bridges the gap
  EXPECT_EQ(b.ranges().size(), 1u);
  EXPECT_EQ(b.size(), 3u);
}

TEST(AddressBlock, InsertOverlapThrows) {
  AddressBlock b(kPoolBase, IpAddress(10, 0, 0, 10));
  EXPECT_THROW(b.insert(IpAddress(10, 0, 0, 5)), InvariantViolation);
  EXPECT_THROW(b.insert({IpAddress(10, 0, 0, 8), IpAddress(10, 0, 0, 12)}),
               InvariantViolation);
}

TEST(AddressBlock, EraseSplitsRange) {
  AddressBlock b(kPoolBase, IpAddress(10, 0, 0, 9));
  b.erase(IpAddress(10, 0, 0, 5));
  EXPECT_EQ(b.size(), 9u);
  EXPECT_EQ(b.ranges().size(), 2u);
  EXPECT_FALSE(b.contains(IpAddress(10, 0, 0, 5)));
  EXPECT_THROW(b.erase(IpAddress(10, 0, 0, 5)), InvariantViolation);
}

TEST(AddressBlock, EraseEndsKeepRange) {
  AddressBlock b(kPoolBase, IpAddress(10, 0, 0, 9));
  b.erase(kPoolBase);
  b.erase(IpAddress(10, 0, 0, 9));
  EXPECT_EQ(b.ranges().size(), 1u);
  EXPECT_EQ(b.lowest(), IpAddress(10, 0, 0, 1));
  EXPECT_EQ(b.highest(), IpAddress(10, 0, 0, 8));
}

TEST(AddressBlock, EraseRange) {
  AddressBlock b(kPoolBase, IpAddress(10, 0, 0, 255));
  b.erase({IpAddress(10, 0, 0, 64), IpAddress(10, 0, 0, 127)});
  EXPECT_EQ(b.size(), 192u);
  EXPECT_FALSE(b.contains(IpAddress(10, 0, 0, 100)));
  EXPECT_THROW(b.erase({IpAddress(10, 0, 0, 60), IpAddress(10, 0, 0, 70)}),
               InvariantViolation);
}

TEST(AddressBlock, PopLowestDrains) {
  AddressBlock b(kPoolBase, IpAddress(10, 0, 0, 2));
  EXPECT_EQ(b.pop_lowest(), kPoolBase);
  EXPECT_EQ(b.pop_lowest(), IpAddress(10, 0, 0, 1));
  EXPECT_EQ(b.pop_lowest(), IpAddress(10, 0, 0, 2));
  EXPECT_TRUE(b.empty());
  EXPECT_THROW(b.pop_lowest(), InvariantViolation);
}

TEST(AddressBlock, SplitHalfKeepsLowAndIdentity) {
  auto b = AddressBlock::contiguous(kPoolBase, 256);
  const IpAddress low = b.lowest();
  const AddressBlock upper = b.split_half();
  EXPECT_EQ(b.size(), 128u);
  EXPECT_EQ(upper.size(), 128u);
  EXPECT_EQ(b.lowest(), low);
  EXPECT_TRUE(b.disjoint_with(upper));
  EXPECT_EQ(upper.lowest(), IpAddress(10, 0, 0, 128));
}

TEST(AddressBlock, SplitHalfOddSize) {
  auto b = AddressBlock::contiguous(kPoolBase, 7);
  const AddressBlock upper = b.split_half();
  EXPECT_EQ(b.size(), 4u);  // lower keeps the ceiling half
  EXPECT_EQ(upper.size(), 3u);
}

TEST(AddressBlock, SplitHalfFragmented) {
  AddressBlock b;
  for (std::uint32_t i = 0; i < 20; i += 2) {
    b.insert(IpAddress(kPoolBase.value() + i));
  }
  const std::uint64_t before = b.size();
  const AddressBlock upper = b.split_half();
  EXPECT_EQ(b.size() + upper.size(), before);
  EXPECT_TRUE(b.disjoint_with(upper));
  EXPECT_LT(b.highest(), upper.lowest());
}

TEST(AddressBlock, SplitTooSmallThrows) {
  AddressBlock b(kPoolBase, kPoolBase);
  EXPECT_THROW(b.split_half(), InvariantViolation);
}

TEST(AddressBlock, MergeDisjoint) {
  AddressBlock a(kPoolBase, IpAddress(10, 0, 0, 9));
  AddressBlock b(IpAddress(10, 0, 0, 10), IpAddress(10, 0, 0, 19));
  a.merge(b);
  EXPECT_EQ(a.size(), 20u);
  EXPECT_EQ(a.ranges().size(), 1u);  // coalesced
}

TEST(AddressBlock, MinusBasics) {
  AddressBlock a(kPoolBase, IpAddress(10, 0, 0, 9));
  AddressBlock b(IpAddress(10, 0, 0, 3), IpAddress(10, 0, 0, 6));
  const AddressBlock diff = a.minus(b);
  EXPECT_EQ(diff.size(), 6u);
  EXPECT_TRUE(diff.contains(IpAddress(10, 0, 0, 2)));
  EXPECT_FALSE(diff.contains(IpAddress(10, 0, 0, 4)));
  EXPECT_TRUE(diff.disjoint_with(b));
}

TEST(AddressBlock, MinusDisjointIsIdentity) {
  AddressBlock a(kPoolBase, IpAddress(10, 0, 0, 9));
  AddressBlock b(IpAddress(10, 0, 1, 0), IpAddress(10, 0, 1, 9));
  EXPECT_EQ(a.minus(b), a);
  EXPECT_TRUE(a.minus(a).empty());
}

TEST(AddressBlock, MinusAtTopOfSpace) {
  // A cut reaching 255.255.255.255 must not wrap the remainder to 0.0.0.0.
  const AddressBlock a(IpAddress(255, 255, 255, 240),
                       IpAddress(255, 255, 255, 255));
  const AddressBlock cut(IpAddress(255, 255, 255, 254),
                         IpAddress(255, 255, 255, 255));
  const AddressBlock diff = a.minus(cut);
  EXPECT_EQ(diff.size(), 14u);
  EXPECT_EQ(diff, AddressBlock(IpAddress(255, 255, 255, 240),
                               IpAddress(255, 255, 255, 253)));
  EXPECT_TRUE(a.minus(a).empty());
  const AddressBlock space(IpAddress(0), IpAddress(0xffffffffu));
  EXPECT_EQ(space.minus(cut).size(), 0x100000000ULL - 2);
  EXPECT_FALSE(space.minus(cut).contains(IpAddress(0xffffffffu)));
}

TEST(AddressBlock, ContainsAll) {
  AddressBlock a(kPoolBase, IpAddress(10, 0, 0, 100));
  AddressBlock sub(IpAddress(10, 0, 0, 10), IpAddress(10, 0, 0, 20));
  EXPECT_TRUE(a.contains_all(sub));
  AddressBlock crossing(IpAddress(10, 0, 0, 90), IpAddress(10, 0, 0, 110));
  EXPECT_FALSE(a.contains_all(crossing));
}

TEST(AddressBlock, ToStringRendersRanges) {
  AddressBlock b;
  b.insert(kPoolBase);
  b.insert({IpAddress(10, 0, 0, 5), IpAddress(10, 0, 0, 7)});
  const std::string s = b.to_string();
  EXPECT_NE(s.find("[10.0.0.0]"), std::string::npos);
  EXPECT_NE(s.find("[10.0.0.5-10.0.0.7]"), std::string::npos);
}

/// Property: block operations agree with a std::set reference model.
class AddressBlockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressBlockProperty, MatchesSetModel) {
  Rng rng(GetParam());
  AddressBlock block;
  std::set<std::uint32_t> model;
  constexpr std::uint32_t kSpan = 512;
  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t v =
        kPoolBase.value() + static_cast<std::uint32_t>(rng.below(kSpan));
    const IpAddress a(v);
    switch (rng.below(4)) {
      case 0:  // insert if absent
        if (!model.count(v)) {
          block.insert(a);
          model.insert(v);
        }
        break;
      case 1:  // erase if present
        if (model.count(v)) {
          block.erase(a);
          model.erase(v);
        }
        break;
      case 2:  // membership must agree
        EXPECT_EQ(block.contains(a), model.count(v) != 0);
        break;
      case 3:  // pop_lowest must agree
        if (!model.empty()) {
          EXPECT_EQ(block.pop_lowest().value(), *model.begin());
          model.erase(model.begin());
        }
        break;
    }
    ASSERT_EQ(block.size(), model.size());
  }
  // Final full sweep.
  for (std::uint32_t v = kPoolBase.value(); v < kPoolBase.value() + kSpan;
       ++v) {
    ASSERT_EQ(block.contains(IpAddress(v)), model.count(v) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressBlockProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

/// Property: minus/contains_all agree with the std::set reference model.
class MinusProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinusProperty, MatchesSetModel) {
  Rng rng(GetParam());
  constexpr std::uint32_t kSpan = 256;
  for (int round = 0; round < 20; ++round) {
    AddressBlock a, b;
    std::set<std::uint32_t> ma, mb;
    for (int i = 0; i < 120; ++i) {
      const std::uint32_t v =
          kPoolBase.value() + static_cast<std::uint32_t>(rng.below(kSpan));
      if (rng.chance(0.5) && !ma.count(v)) {
        a.insert(IpAddress(v));
        ma.insert(v);
      }
      const std::uint32_t w =
          kPoolBase.value() + static_cast<std::uint32_t>(rng.below(kSpan));
      if (rng.chance(0.5) && !mb.count(w)) {
        b.insert(IpAddress(w));
        mb.insert(w);
      }
    }
    const AddressBlock diff = a.minus(b);
    std::uint64_t expected = 0;
    for (std::uint32_t v : ma) {
      const bool in_diff = diff.contains(IpAddress(v));
      EXPECT_EQ(in_diff, mb.count(v) == 0) << IpAddress(v);
      if (!mb.count(v)) ++expected;
    }
    EXPECT_EQ(diff.size(), expected);
    EXPECT_TRUE(a.contains_all(diff));
    EXPECT_TRUE(diff.disjoint_with(b));
    // contains_all agrees with subset relation on the models.
    const bool subset =
        std::includes(ma.begin(), ma.end(), mb.begin(), mb.end());
    EXPECT_EQ(a.contains_all(b), subset);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinusProperty,
                         ::testing::Values(21, 42, 63, 84));

/// Property: split_half then merge round-trips.
class SplitMergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitMergeProperty, RoundTrips) {
  Rng rng(GetParam());
  AddressBlock b;
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t v =
        kPoolBase.value() + static_cast<std::uint32_t>(rng.below(1024));
    if (!b.contains(IpAddress(v))) b.insert(IpAddress(v));
  }
  const AddressBlock original = b;
  AddressBlock upper = b.split_half();
  EXPECT_TRUE(b.disjoint_with(upper));
  b.merge(upper);
  EXPECT_EQ(b, original);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitMergeProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// AllocationTable
// ---------------------------------------------------------------------------

TEST(AllocationTable, ImplicitFreeRecord) {
  AllocationTable t;
  const auto rec = t.get(kPoolBase);
  EXPECT_EQ(rec.status, AddressStatus::kFree);
  EXPECT_EQ(rec.timestamp, 0u);
  EXPECT_FALSE(t.allocated(kPoolBase));
  EXPECT_EQ(t.entries(), 0u);
}

TEST(AllocationTable, CommitAllocateBumpsTimestamp) {
  AllocationTable t;
  const auto rec = t.commit_allocate(kPoolBase, 7, 0);
  EXPECT_EQ(rec.status, AddressStatus::kAllocated);
  EXPECT_EQ(rec.holder, 7u);
  EXPECT_EQ(rec.timestamp, 1u);
  const auto rec2 = t.commit_free(kPoolBase, 5);  // newer quorum info
  EXPECT_EQ(rec2.timestamp, 6u);
  EXPECT_FALSE(t.allocated(kPoolBase));
}

TEST(AllocationTable, DoubleAllocateSameHolderOk) {
  AllocationTable t;
  t.commit_allocate(kPoolBase, 7, 0);
  EXPECT_NO_THROW(t.commit_allocate(kPoolBase, 7, 1));
  EXPECT_THROW(t.commit_allocate(kPoolBase, 9, 2), InvariantViolation);
}

TEST(AllocationTable, AdoptIfNewer) {
  AllocationTable t;
  t.commit_allocate(kPoolBase, 3, 0);  // ts 1
  AddressRecord stale{AddressStatus::kFree, 0, 0};
  EXPECT_FALSE(t.adopt_if_newer(kPoolBase, stale));
  AddressRecord fresh{AddressStatus::kFree, 9, 0};
  EXPECT_TRUE(t.adopt_if_newer(kPoolBase, fresh));
  EXPECT_FALSE(t.allocated(kPoolBase));
}

TEST(AllocationTable, MergeNewerCounts) {
  AllocationTable a, b;
  a.commit_allocate(kPoolBase, 1, 0);                   // ts 1
  b.commit_allocate(kPoolBase, 1, 5);                   // ts 6 (newer)
  b.commit_allocate(IpAddress(10, 0, 0, 1), 2, 0);      // new addr
  EXPECT_EQ(a.merge_newer(b), 2u);
  EXPECT_EQ(a.get(kPoolBase).timestamp, 6u);
  EXPECT_TRUE(a.allocated(IpAddress(10, 0, 0, 1)));
  EXPECT_EQ(a.merge_newer(b), 0u);  // idempotent
}

TEST(AllocationTable, AllocatedCount) {
  AllocationTable t;
  t.commit_allocate(kPoolBase, 1, 0);
  t.commit_allocate(IpAddress(10, 0, 0, 1), 2, 0);
  t.commit_free(IpAddress(10, 0, 0, 1), 1);
  EXPECT_EQ(t.allocated_count(), 1u);
  EXPECT_EQ(t.known_addresses().size(), 2u);
}

TEST(AllocationTable, SplitsAtBottomOfSpace) {
  AllocationTable t;
  const AddressRecord freed{AddressStatus::kFree, 3, 0};
  for (std::uint32_t v = 0; v < 4; ++v) t.install(IpAddress(v), freed);
  ASSERT_EQ(t.runs().size(), 1u);
  t.commit_allocate(IpAddress(0), 7, 0);  // splits the low end off
  ASSERT_EQ(t.runs().size(), 2u);
  EXPECT_EQ(t.runs()[0].lo, IpAddress(0));
  EXPECT_EQ(t.runs()[0].hi, IpAddress(0));
  EXPECT_EQ(t.runs()[1].lo, IpAddress(1));
  EXPECT_EQ(t.max_timestamp(IpAddress(0), IpAddress(0)), 4u);
  t.install(IpAddress(0), freed);  // re-coalesces
  ASSERT_EQ(t.runs().size(), 1u);
  t.erase(IpAddress(0));
  EXPECT_EQ(t.runs()[0].lo, IpAddress(1));
  EXPECT_EQ(t.get(IpAddress(0)), AddressRecord{});
  EXPECT_EQ(t.entries(), 3u);
}

TEST(AllocationTable, SplitsAtTopOfSpace) {
  AllocationTable t;
  const AddressRecord freed{AddressStatus::kFree, 3, 0};
  constexpr std::uint32_t kTop = 0xffffffffu;
  for (std::uint32_t v = kTop - 3;; ++v) {
    t.install(IpAddress(v), freed);
    if (v == kTop) break;
  }
  ASSERT_EQ(t.runs().size(), 1u);
  t.commit_allocate(IpAddress(kTop), 7, 0);  // splits the high end off
  ASSERT_EQ(t.runs().size(), 2u);
  EXPECT_EQ(t.runs()[0].hi, IpAddress(kTop - 1));
  EXPECT_EQ(t.runs()[1].lo, IpAddress(kTop));
  EXPECT_EQ(t.runs()[1].hi, IpAddress(kTop));
  t.commit_allocate(IpAddress(kTop - 2), 8, 0);  // splits the middle
  EXPECT_EQ(t.runs().size(), 4u);
  EXPECT_EQ(t.allocated_count(), 2u);
  EXPECT_EQ(t.max_timestamp(IpAddress(kTop - 1), IpAddress(kTop)), 4u);
  const AddressBlock universe(IpAddress(kTop - 7), IpAddress(kTop));
  EXPECT_EQ(derive_free_pool(universe, t).size(), 6u);

  AllocationTable other;
  other.install(IpAddress(kTop), {AddressStatus::kFree, 9, 0});
  EXPECT_EQ(t.merge_newer(other), 1u);
  EXPECT_EQ(t.allocated_count(), 1u);
  EXPECT_EQ(t.runs().back().lo, IpAddress(kTop));
  t.erase(IpAddress(kTop));
  EXPECT_EQ(t.runs().back().hi, IpAddress(kTop - 1));
}

TEST(AllocationTable, ReclaimedBlockIsOneRun) {
  // Reclamation (§IV-D) writes one record per address of the dead head's
  // space; neighbours get equal records, so the block is stored as one run.
  AllocationTable t;
  const AddressRecord freed{AddressStatus::kFree, 1, 0};
  for (std::uint32_t i = 0; i < 512; ++i)
    t.install(IpAddress(kPoolBase.value() + i), freed);
  ASSERT_EQ(t.runs().size(), 1u);
  EXPECT_EQ(t.runs()[0].lo, kPoolBase);
  EXPECT_EQ(t.runs()[0].hi, IpAddress(kPoolBase.value() + 511));
  EXPECT_EQ(t.entries(), 512u);
  EXPECT_EQ(t.known_addresses().size(), 512u);
  AllocationTable replica;
  EXPECT_EQ(replica.merge_newer(t), 512u);
  EXPECT_EQ(replica.runs().size(), 1u);
}

TEST(DeriveFreePool, UniverseMinusAllocated) {
  const auto universe = AddressBlock::contiguous(kPoolBase, 8);
  AllocationTable t;
  t.commit_allocate(IpAddress(10, 0, 0, 2), 1, 0);
  t.commit_allocate(IpAddress(10, 0, 0, 5), 2, 0);
  t.commit_free(IpAddress(10, 0, 0, 6), 0);
  t.commit_allocate(IpAddress(10, 0, 1, 0), 3, 0);  // outside the universe
  const AddressBlock free = derive_free_pool(universe, t);
  EXPECT_EQ(free.size(), 6u);
  EXPECT_FALSE(free.contains(IpAddress(10, 0, 0, 2)));
  EXPECT_TRUE(free.contains(IpAddress(10, 0, 0, 6)));
}

// ---------------------------------------------------------------------------
// AllocationTable against the per-address model it replaced
// ---------------------------------------------------------------------------

/// The hash-backed table's semantics, one explicit record per address.
struct TableModel {
  std::map<std::uint32_t, AddressRecord> records;

  AddressRecord get(std::uint32_t a) const {
    auto it = records.find(a);
    return it == records.end() ? AddressRecord{} : it->second;
  }
  bool adopt_if_newer(std::uint32_t a, const AddressRecord& rec) {
    auto it = records.find(a);
    if (it == records.end()) {
      if (rec == AddressRecord{}) return false;
      records.emplace(a, rec);
      return true;
    }
    if (rec.timestamp <= it->second.timestamp) return false;
    it->second = rec;
    return true;
  }
  std::size_t merge_newer(const TableModel& other) {
    std::size_t adopted = 0;
    for (const auto& [a, rec] : other.records)
      if (adopt_if_newer(a, rec)) ++adopted;
    return adopted;
  }
};

class AllocationTableModel : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Clusters at both ends of the space and at the pool base, so runs split
  // and coalesce at 0.0.0.0 and 255.255.255.255 too.
  static constexpr std::uint32_t kSpan = 48;
  static constexpr std::uint32_t kBases[] = {0, kPoolBase.value(),
                                             0xffffffffu - kSpan + 1};

  std::uint32_t pick_address(Rng& rng) {
    return kBases[rng.below(3)] + static_cast<std::uint32_t>(rng.below(kSpan));
  }

  /// Few distinct records, so neighbours often agree and runs form.
  AddressRecord pick_record(Rng& rng) {
    AddressRecord rec;
    rec.timestamp = rng.below(4);
    if (rng.chance(0.5)) {
      rec.status = AddressStatus::kAllocated;
      rec.holder = 1 + static_cast<std::uint32_t>(rng.below(2));
    }
    return rec;
  }

  /// Range within one cluster.
  std::pair<std::uint32_t, std::uint32_t> pick_range(Rng& rng) {
    const std::uint32_t base = kBases[rng.below(3)];
    std::uint32_t lo = static_cast<std::uint32_t>(rng.below(kSpan));
    std::uint32_t hi = static_cast<std::uint32_t>(rng.below(kSpan));
    if (lo > hi) std::swap(lo, hi);
    return {base + lo, base + hi};
  }

  static void expect_matches(const AllocationTable& t, const TableModel& m) {
    for (std::uint32_t base : kBases) {
      for (std::uint32_t i = 0; i < kSpan; ++i) {
        ASSERT_EQ(t.get(IpAddress(base + i)), m.get(base + i))
            << IpAddress(base + i);
      }
    }
    ASSERT_EQ(t.entries(), m.records.size());
    std::vector<IpAddress> keys;
    std::uint64_t allocated = 0;
    for (const auto& [a, rec] : m.records) {
      keys.push_back(IpAddress(a));
      if (rec.status == AddressStatus::kAllocated) ++allocated;
    }
    ASSERT_EQ(t.known_addresses(), keys);
    ASSERT_EQ(t.allocated_count(), allocated);
    // Runs: sorted, disjoint, maximal.
    const auto& runs = t.runs();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_LE(runs[i].lo, runs[i].hi);
      if (i + 1 == runs.size()) break;
      ASSERT_LT(runs[i].hi, runs[i + 1].lo);
      ASSERT_FALSE(runs[i].hi.next() == runs[i + 1].lo &&
                   runs[i].record == runs[i + 1].record)
          << "adjacent equal runs at " << runs[i].hi;
    }
  }
};

TEST_P(AllocationTableModel, MatchesPerAddressSemantics) {
  Rng rng(GetParam());
  AllocationTable tables[2];
  TableModel models[2];
  for (int step = 0; step < 12000; ++step) {
    const std::size_t k = rng.below(2);
    AllocationTable& t = tables[k];
    TableModel& m = models[k];
    const std::uint32_t a = pick_address(rng);
    switch (rng.below(9)) {
      case 0: {  // commit_allocate
        const std::uint32_t holder = 1 + static_cast<std::uint32_t>(rng.below(2));
        const std::uint64_t min_ts = rng.below(4);
        AddressRecord rec = m.get(a);
        if (rec.status == AddressStatus::kAllocated && rec.holder != holder) {
          ASSERT_THROW(t.commit_allocate(IpAddress(a), holder, min_ts),
                       InvariantViolation);
          break;
        }
        rec = {AddressStatus::kAllocated,
               std::max(rec.timestamp, min_ts) + 1, holder};
        m.records[a] = rec;
        ASSERT_EQ(t.commit_allocate(IpAddress(a), holder, min_ts), rec);
        break;
      }
      case 1: {  // commit_free
        const std::uint64_t min_ts = rng.below(4);
        const AddressRecord rec{AddressStatus::kFree,
                                std::max(m.get(a).timestamp, min_ts) + 1, 0};
        m.records[a] = rec;
        ASSERT_EQ(t.commit_free(IpAddress(a), min_ts), rec);
        break;
      }
      case 2: {  // install
        const AddressRecord rec = pick_record(rng);
        m.records[a] = rec;
        t.install(IpAddress(a), rec);
        break;
      }
      case 3: {  // install one record over a range, as reclamation does
        const auto [lo, hi] = pick_range(rng);
        const AddressRecord rec = pick_record(rng);
        for (std::uint32_t v = lo;; ++v) {
          m.records[v] = rec;
          t.install(IpAddress(v), rec);
          if (v == hi) break;
        }
        break;
      }
      case 4: {  // adopt_if_newer
        const AddressRecord rec = pick_record(rng);
        ASSERT_EQ(t.adopt_if_newer(IpAddress(a), rec), m.adopt_if_newer(a, rec));
        break;
      }
      case 5:  // erase
        m.records.erase(a);
        t.erase(IpAddress(a));
        break;
      case 6:  // clear (rarely: tables should grow)
        if (rng.chance(0.02)) {
          m.records.clear();
          t.clear();
        }
        break;
      case 7: {  // merge_newer from the other table
        ASSERT_EQ(t.merge_newer(tables[1 - k]), m.merge_newer(models[1 - k]));
        break;
      }
      case 8: {  // max_timestamp and derive_free_pool on random ranges
        const auto [lo, hi] = pick_range(rng);
        std::uint64_t ts = 0;
        for (auto it = m.records.lower_bound(lo);
             it != m.records.end() && it->first <= hi; ++it) {
          ts = std::max(ts, it->second.timestamp);
        }
        ASSERT_EQ(t.max_timestamp(IpAddress(lo), IpAddress(hi)), ts);
        // The per-address formula derive_free_pool replaced.
        AddressBlock universe{IpAddress(lo), IpAddress(hi)};
        const auto [lo2, hi2] = pick_range(rng);
        if (universe.disjoint_with(AddressBlock(IpAddress(lo2), IpAddress(hi2))))
          universe.insert({IpAddress(lo2), IpAddress(hi2)});
        AddressBlock expected = universe;
        for (const auto& [addr, rec] : m.records) {
          if (rec.status == AddressStatus::kAllocated &&
              expected.contains(IpAddress(addr))) {
            expected.erase(IpAddress(addr));
          }
        }
        ASSERT_EQ(derive_free_pool(universe, t), expected);
        break;
      }
    }
    expect_matches(t, m);
    if (HasFatalFailure()) FAIL() << "diverged at step " << step;
  }
  // Both tables must have grown real runs, or the test proves little.
  EXPECT_GT(tables[0].entries(), tables[0].runs().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationTableModel,
                         ::testing::Values(7, 8, 9, 10));

}  // namespace
}  // namespace qip
