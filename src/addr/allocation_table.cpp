#include "addr/allocation_table.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace qip {

const char* to_string(AddressStatus status) {
  switch (status) {
    case AddressStatus::kFree:
      return "free";
    case AddressStatus::kAllocated:
      return "allocated";
  }
  return "?";
}

namespace {

/// First run whose hi is >= a (the only run that can hold a, or the first
/// run above it).
template <typename Runs>
auto first_ending_at_or_after(Runs& runs, IpAddress a) {
  return std::lower_bound(
      runs.begin(), runs.end(), a,
      [](const AllocationTable::Run& r, IpAddress v) { return r.hi < v; });
}

}  // namespace

const AllocationTable::Run* AllocationTable::find(IpAddress a) const {
  auto it = first_ending_at_or_after(runs_, a);
  return it != runs_.end() && it->lo <= a ? &*it : nullptr;
}

AddressRecord AllocationTable::get(IpAddress a) const {
  const Run* run = find(a);
  return run ? run->record : AddressRecord{};
}

std::uint64_t AllocationTable::max_timestamp(IpAddress lo,
                                             IpAddress hi) const {
  std::uint64_t ts = 0;
  for (auto it = first_ending_at_or_after(runs_, lo);
       it != runs_.end() && it->lo <= hi; ++it) {
    ts = std::max(ts, it->record.timestamp);
  }
  return ts;
}

std::size_t AllocationTable::cut(IpAddress a) {
  auto it = first_ending_at_or_after(runs_, a);
  const auto i = static_cast<std::size_t>(it - runs_.begin());
  if (it == runs_.end() || it->lo > a) return i;
  if (it->lo == a && it->hi == a) {
    runs_.erase(it);
    return i;
  }
  if (it->lo == a) {
    it->lo = a.next();
    return i;
  }
  if (it->hi == a) {
    it->hi = a.prev();
    return i + 1;
  }
  const Run tail{a.next(), it->hi, it->record};
  it->hi = a.prev();
  runs_.insert(std::next(it), tail);
  return i + 1;
}

void AllocationTable::install(IpAddress a, const AddressRecord& record) {
  if (const Run* run = find(a); run != nullptr && run->record == record)
    return;
  const std::size_t i = cut(a);
  // Runs left of i end below a and runs from i on start above it, so
  // neither adjacency test can wrap.
  const bool join_left = i > 0 && runs_[i - 1].hi.next() == a &&
                         runs_[i - 1].record == record;
  const bool join_right = i < runs_.size() && runs_[i].lo.prev() == a &&
                          runs_[i].record == record;
  if (join_left && join_right) {
    runs_[i - 1].hi = runs_[i].hi;
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i));
  } else if (join_left) {
    runs_[i - 1].hi = a;
  } else if (join_right) {
    runs_[i].lo = a;
  } else {
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i),
                 Run{a, a, record});
  }
}

void AllocationTable::erase(IpAddress a) { cut(a); }

AddressRecord AllocationTable::commit_allocate(IpAddress a,
                                               std::uint32_t holder,
                                               std::uint64_t min_timestamp) {
  AddressRecord rec = get(a);
  QIP_ASSERT_MSG(rec.status == AddressStatus::kFree || rec.holder == holder,
                 "allocating " << a << " already held by node " << rec.holder);
  rec.status = AddressStatus::kAllocated;
  rec.holder = holder;
  rec.timestamp = std::max(rec.timestamp, min_timestamp) + 1;
  install(a, rec);
  return rec;
}

AddressRecord AllocationTable::commit_free(IpAddress a,
                                           std::uint64_t min_timestamp) {
  AddressRecord rec = get(a);
  rec.status = AddressStatus::kFree;
  rec.holder = 0;
  rec.timestamp = std::max(rec.timestamp, min_timestamp) + 1;
  install(a, rec);
  return rec;
}

bool AllocationTable::adopt_if_newer(IpAddress a, const AddressRecord& record) {
  const Run* mine = find(a);
  const bool newer = mine == nullptr
                         ? record != AddressRecord{}
                         : record.timestamp > mine->record.timestamp;
  if (newer) install(a, record);
  return newer;
}

std::size_t AllocationTable::merge_newer(const AllocationTable& other) {
  // Walks both run lists once, cutting the address line into segments over
  // which neither side changes, and keeps per segment the record
  // adopt_if_newer would keep per address.  The scratch is reused across
  // merges, so steady-state reconciliation allocates only when this table
  // outgrows its own capacity.
  thread_local std::vector<Run> out;
  out.clear();
  const auto emit = [](std::uint64_t lo, std::uint64_t hi,
                       const AddressRecord& rec) {
    if (!out.empty() && out.back().hi.value() + std::uint64_t{1} == lo &&
        out.back().record == rec) {
      out.back().hi = IpAddress(static_cast<std::uint32_t>(hi));
    } else {
      out.push_back({IpAddress(static_cast<std::uint32_t>(lo)),
                     IpAddress(static_cast<std::uint32_t>(hi)), rec});
    }
  };
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::size_t adopted = 0;
  std::uint64_t pos = 0;  // lowest address not yet decided
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < runs_.size() || j < other.runs_.size()) {
    const Run* mine = i < runs_.size() ? &runs_[i] : nullptr;
    const Run* theirs = j < other.runs_.size() ? &other.runs_[j] : nullptr;
    const std::uint64_t mine_lo =
        mine ? std::max<std::uint64_t>(mine->lo.value(), pos) : kNone;
    const std::uint64_t theirs_lo =
        theirs ? std::max<std::uint64_t>(theirs->lo.value(), pos) : kNone;
    const std::uint64_t lo = std::min(mine_lo, theirs_lo);
    const bool mine_in = mine_lo == lo;
    const bool theirs_in = theirs_lo == lo;
    // The segment ends where a covering run ends or the other run begins.
    std::uint64_t hi = kNone;
    if (mine) hi = mine_in ? mine->hi.value() : mine_lo - 1;
    if (theirs)
      hi = std::min<std::uint64_t>(
          hi, theirs_in ? theirs->hi.value() : theirs_lo - 1);
    if (theirs_in &&
        (mine_in ? theirs->record.timestamp > mine->record.timestamp
                 : theirs->record != AddressRecord{})) {
      emit(lo, hi, theirs->record);
      adopted += static_cast<std::size_t>(hi - lo + 1);
    } else if (mine_in) {
      emit(lo, hi, mine->record);
    }
    pos = hi + 1;
    if (mine && mine->hi.value() < pos) ++i;
    if (theirs && theirs->hi.value() < pos) ++j;
  }
  if (adopted != 0) runs_.assign(out.begin(), out.end());
  return adopted;
}

std::size_t AllocationTable::entries() const {
  std::size_t n = 0;
  for (const Run& r : runs_) n += r.hi.value() - r.lo.value() + std::size_t{1};
  return n;
}

std::uint64_t AllocationTable::allocated_count() const {
  std::uint64_t n = 0;
  for (const Run& r : runs_) {
    if (r.record.status == AddressStatus::kAllocated)
      n += r.hi.value() - r.lo.value() + std::uint64_t{1};
  }
  return n;
}

AddressBlock AllocationTable::allocated_block() const {
  AddressBlock out;
  for (const Run& r : runs_) {
    if (r.record.status == AddressStatus::kAllocated) out.insert({r.lo, r.hi});
  }
  return out;
}

std::vector<IpAddress> AllocationTable::known_addresses() const {
  std::vector<IpAddress> out;
  out.reserve(entries());
  for (const Run& r : runs_) {
    for (std::uint32_t v = r.lo.value();; ++v) {
      out.push_back(IpAddress(v));
      if (v == r.hi.value()) break;
    }
  }
  return out;
}

}  // namespace qip
