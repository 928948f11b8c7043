#include "addr/address_block.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace qip {

AddressBlock::AddressBlock(IpAddress lo, IpAddress hi) {
  QIP_ASSERT_MSG(lo <= hi, "inverted range " << lo << "-" << hi);
  ranges_.push_back({lo, hi});
}

AddressBlock AddressBlock::contiguous(IpAddress base, std::uint64_t count) {
  QIP_ASSERT(count > 0);
  QIP_ASSERT_MSG(std::uint64_t{base.value()} + count - 1 <= 0xffffffffULL,
                 "pool overflows the IPv4 space");
  return AddressBlock(base,
                      IpAddress(base.value() + static_cast<std::uint32_t>(count) - 1));
}

std::uint64_t AddressBlock::size() const {
  std::uint64_t total = 0;
  for (const auto& r : ranges_) total += r.size();
  return total;
}

bool AddressBlock::contains(IpAddress a) const {
  // First range with hi >= a; a is present iff that range's lo <= a.
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), a,
      [](const Range& r, IpAddress v) { return r.hi < v; });
  return it != ranges_.end() && it->lo <= a;
}

IpAddress AddressBlock::lowest() const {
  QIP_ASSERT_MSG(!empty(), "lowest() on empty block");
  return ranges_.front().lo;
}

IpAddress AddressBlock::highest() const {
  QIP_ASSERT_MSG(!empty(), "highest() on empty block");
  return ranges_.back().hi;
}

void AddressBlock::insert(IpAddress a) { insert(Range{a, a}); }

void AddressBlock::insert(Range r) {
  QIP_ASSERT_MSG(r.lo <= r.hi, "inverted range");
  // Position of the first range that could follow or touch r.
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), r,
      [](const Range& existing, const Range& probe) {
        return existing.hi < probe.lo;
      });
  QIP_ASSERT_MSG(it == ranges_.end() || it->lo > r.hi,
                 "inserting overlapping range " << r.lo << "-" << r.hi);
  // Coalesce with left neighbour (it-1 ends exactly at r.lo-1)?
  bool merged_left = false;
  if (it != ranges_.begin()) {
    auto left = std::prev(it);
    if (left->hi.value() != 0xffffffffu && left->hi.next() == r.lo) {
      left->hi = r.hi;
      it = left;
      merged_left = true;
    }
  }
  if (!merged_left) {
    it = ranges_.insert(it, r);
  }
  // Coalesce with right neighbour?
  auto right = std::next(it);
  if (right != ranges_.end() && it->hi.value() != 0xffffffffu &&
      it->hi.next() == right->lo) {
    it->hi = right->hi;
    ranges_.erase(right);
  }
  check_invariant();
}

void AddressBlock::merge(const AddressBlock& other) {
  for (const auto& r : other.ranges_) insert(r);
}

void AddressBlock::erase(IpAddress a) {
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), a,
      [](const Range& r, IpAddress v) { return r.hi < v; });
  QIP_ASSERT_MSG(it != ranges_.end() && it->lo <= a,
                 "erasing absent address " << a);
  if (it->lo == a && it->hi == a) {
    ranges_.erase(it);
  } else if (it->lo == a) {
    it->lo = a.next();
  } else if (it->hi == a) {
    it->hi = a.prev();
  } else {
    const Range tail{a.next(), it->hi};
    it->hi = a.prev();
    ranges_.insert(std::next(it), tail);
  }
  check_invariant();
}

void AddressBlock::erase(Range r) {
  QIP_ASSERT_MSG(r.lo <= r.hi, "inverted range");
  auto it = std::lower_bound(
      ranges_.begin(), ranges_.end(), r.lo,
      [](const Range& existing, IpAddress v) { return existing.hi < v; });
  QIP_ASSERT_MSG(it != ranges_.end() && it->lo <= r.lo && r.hi <= it->hi,
                 "erasing range " << r.lo << "-" << r.hi
                                  << " not fully contained");
  const Range host = *it;
  if (host.lo == r.lo && host.hi == r.hi) {
    ranges_.erase(it);
  } else if (host.lo == r.lo) {
    it->lo = r.hi.next();
  } else if (host.hi == r.hi) {
    it->hi = r.lo.prev();
  } else {
    const Range tail{r.hi.next(), host.hi};
    it->hi = r.lo.prev();
    ranges_.insert(std::next(it), tail);
  }
  check_invariant();
}

void AddressBlock::erase_all(const AddressBlock& sub) {
  for (const auto& r : sub.ranges_) erase(r);
}

bool AddressBlock::contains_all(const AddressBlock& sub) const {
  for (const auto& r : sub.ranges_) {
    auto it = std::lower_bound(
        ranges_.begin(), ranges_.end(), r.lo,
        [](const Range& existing, IpAddress v) { return existing.hi < v; });
    if (it == ranges_.end() || it->lo > r.lo || r.hi > it->hi) return false;
  }
  return true;
}

IpAddress AddressBlock::pop_lowest() {
  const IpAddress a = lowest();
  erase(a);
  return a;
}

AddressBlock AddressBlock::minus(const AddressBlock& other) const {
  AddressBlock out;
  auto cut = other.ranges_.begin();
  for (Range r : ranges_) {
    // Advance past cuts entirely below r.
    while (cut != other.ranges_.end() && cut->hi < r.lo) ++cut;
    IpAddress lo = r.lo;
    // Set when a cut reaches r.hi: r.hi.next() would wrap to 0.0.0.0 when
    // r ends at the top of the space.
    bool covered = false;
    auto c = cut;
    while (c != other.ranges_.end() && c->lo <= r.hi) {
      if (c->lo > lo) out.ranges_.push_back({lo, c->lo.prev()});
      if (c->hi >= r.hi) {
        covered = true;
        break;
      }
      lo = c->hi.next();
      ++c;
    }
    if (!covered) out.ranges_.push_back({lo, r.hi});
  }
  out.check_invariant();
  return out;
}

AddressBlock AddressBlock::split_half() {
  const std::uint64_t total = size();
  QIP_ASSERT_MSG(total >= 2, "cannot split a block of size " << total);
  const std::uint64_t keep = (total + 1) / 2;  // lower ⌈n/2⌉ stays
  AddressBlock upper;
  // Walk ranges from the low end, skipping `keep` addresses; everything
  // beyond moves to `upper`.
  std::uint64_t skipped = 0;
  std::vector<Range> kept;
  for (const auto& r : ranges_) {
    const std::uint64_t len = r.size();
    if (skipped + len <= keep) {
      kept.push_back(r);
      skipped += len;
    } else if (skipped >= keep) {
      upper.ranges_.push_back(r);
    } else {
      const std::uint64_t take = keep - skipped;
      const IpAddress cut(r.lo.value() + static_cast<std::uint32_t>(take) - 1);
      kept.push_back({r.lo, cut});
      upper.ranges_.push_back({cut.next(), r.hi});
      skipped = keep;
    }
  }
  ranges_ = std::move(kept);
  check_invariant();
  upper.check_invariant();
  return upper;
}

bool AddressBlock::disjoint_with(const AddressBlock& other) const {
  auto a = ranges_.begin();
  auto b = other.ranges_.begin();
  while (a != ranges_.end() && b != other.ranges_.end()) {
    if (a->hi < b->lo) {
      ++a;
    } else if (b->hi < a->lo) {
      ++b;
    } else {
      return false;
    }
  }
  return true;
}

std::string AddressBlock::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

void AddressBlock::check_invariant() const {
#ifndef NDEBUG
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    QIP_ASSERT(ranges_[i].lo <= ranges_[i].hi);
    if (i + 1 < ranges_.size()) {
      // Strictly separated (a gap of at least one address), else they would
      // have been coalesced.
      QIP_ASSERT(ranges_[i].hi.value() + 1 < ranges_[i + 1].lo.value());
    }
  }
#endif
}

std::ostream& operator<<(std::ostream& os, const AddressBlock& block) {
  if (block.empty()) return os << "[]";
  bool first = true;
  for (const auto& r : block.ranges()) {
    if (!first) os << ", ";
    first = false;
    if (r.lo == r.hi)
      os << '[' << r.lo << ']';
    else
      os << '[' << r.lo << '-' << r.hi << ']';
  }
  return os;
}

}  // namespace qip
