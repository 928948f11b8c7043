// Timestamped per-address allocation state.
//
// Every copy of an address record carries a logical timestamp that starts at
// zero and increments on each committed update (§II-C).  Quorum reads take
// the record with the latest timestamp; replica stores adopt newer records
// wholesale (last-writer-wins is safe because quorum intersection serializes
// writers).
#pragma once

#include <cstdint>
#include <vector>

#include "addr/address_block.hpp"
#include "addr/ip_address.hpp"

namespace qip {

enum class AddressStatus : std::uint8_t {
  kFree = 0,      ///< available for allocation
  kAllocated = 1, ///< bound to a configured node
};

const char* to_string(AddressStatus status);

struct AddressRecord {
  AddressStatus status = AddressStatus::kFree;
  std::uint64_t timestamp = 0;
  /// Simulator id of the node currently holding the address (meaningful only
  /// when allocated).  This mirrors the paper's allocation table contents.
  std::uint32_t holder = 0;

  bool operator==(const AddressRecord&) const = default;
};

/// Sparse table: addresses without an entry are implicitly kFree at
/// timestamp 0 (the initial state of every copy).  An explicit record equal
/// to that initial value is still an entry: adopt_if_newer treats it as a
/// copy that has seen the address, which an absent address has not.
///
/// Stored as a sorted vector of maximal runs: closed ranges of adjacent
/// addresses holding equal records.  Reclaiming a head's space writes one
/// record per address, but neighbours get equal records, so a whole
/// reclaimed block is one run and every replica copy of it is one element
/// (docs/SCALE.md).  Point updates split or extend runs in place; merges,
/// free-pool derivation and quorum reads work on whole runs.
class AllocationTable {
 public:
  /// Closed range [lo, hi] of addresses that all hold `record`.
  struct Run {
    IpAddress lo;
    IpAddress hi;
    AddressRecord record;
  };

  /// Record for `a`, or the implicit initial record.
  AddressRecord get(IpAddress a) const;

  /// True if `a` has status kAllocated.
  bool allocated(IpAddress a) const {
    return get(a).status == AddressStatus::kAllocated;
  }

  /// Latest timestamp over [lo, hi] (0 where no record exists).
  std::uint64_t max_timestamp(IpAddress lo, IpAddress hi) const;

  /// Commits an allocation: bumps the timestamp past `min_timestamp` (the
  /// freshest value seen in the quorum read) and returns the new record.
  AddressRecord commit_allocate(IpAddress a, std::uint32_t holder,
                                std::uint64_t min_timestamp);

  /// Commits a release (address returned / reclaimed).
  AddressRecord commit_free(IpAddress a, std::uint64_t min_timestamp);

  /// Adopts `record` for `a` iff it is strictly newer than ours (replica
  /// update path).  Returns true if adopted.
  bool adopt_if_newer(IpAddress a, const AddressRecord& record);

  /// Unconditionally installs a record (initial replica seeding), splitting
  /// and coalescing runs as needed.
  void install(IpAddress a, const AddressRecord& record);

  /// Adopts every record of `other` that is newer than ours (replica
  /// reconciliation), in one sweep over both run lists.  Returns how many
  /// addresses were adopted.
  std::size_t merge_newer(const AllocationTable& other);

  /// Drops the record for `a` (it becomes implicit again).
  void erase(IpAddress a);
  void clear() { runs_.clear(); }

  /// Number of addresses with explicit records.
  std::size_t entries() const;
  std::uint64_t allocated_count() const;

  /// Every address whose record is kAllocated.
  AddressBlock allocated_block() const;

  /// All addresses with explicit records, ascending.  Expands every run, so
  /// it belongs in tests and cold paths only.
  std::vector<IpAddress> known_addresses() const;

  /// The runs, ascending, disjoint and maximal (no two adjacent runs hold
  /// equal records).
  const std::vector<Run>& runs() const { return runs_; }

 private:
  /// Run holding `a`, or nullptr.
  const Run* find(IpAddress a) const;
  /// Removes `a` from the run holding it, if any.  Returns the index at
  /// which a run starting at `a` belongs.
  std::size_t cut(IpAddress a);

  std::vector<Run> runs_;
};

}  // namespace qip
