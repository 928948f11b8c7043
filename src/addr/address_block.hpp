// Interval set of IP addresses (a cluster head's IPSpace).
//
// Stored as sorted, coalesced, non-overlapping closed ranges.  The dominant
// operations are:
//   * pop_lowest()   — configure a common node with the first free address;
//   * split_half()   — hand the upper half of the pool to a new cluster head
//                      ("the allocator assigns half its IP block", §IV-B);
//   * insert/erase   — return / lend individual addresses;
// all O(log k + k) in the number of ranges k, which stays tiny because the
// protocol allocates and returns mostly-contiguous runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "addr/ip_address.hpp"

namespace qip {

class AddressBlock {
 public:
  /// Closed range [lo, hi].
  struct Range {
    IpAddress lo;
    IpAddress hi;
    bool operator==(const Range&) const = default;
    std::uint64_t size() const {
      return std::uint64_t{hi.value()} - lo.value() + 1;
    }
  };

  AddressBlock() = default;
  /// Block holding the closed range [lo, hi].
  AddressBlock(IpAddress lo, IpAddress hi);
  /// Block holding `count` addresses starting at `base`.
  static AddressBlock contiguous(IpAddress base, std::uint64_t count);

  bool empty() const { return ranges_.empty(); }
  std::uint64_t size() const;
  bool contains(IpAddress a) const;
  /// Lowest address in the block; block must be non-empty.
  IpAddress lowest() const;
  IpAddress highest() const;

  /// Adds one address.  Asserts it was absent (double-free of an address is
  /// a protocol bug, not a recoverable condition).
  void insert(IpAddress a);
  /// Adds a closed range, asserting no overlap with existing contents.
  void insert(Range r);
  /// Merges another block in (ranges must be disjoint from ours).
  void merge(const AddressBlock& other);

  /// Removes one address; asserts it was present.
  void erase(IpAddress a);

  /// Removes a closed range; asserts every address in it was present.
  void erase(Range r);

  /// Removes every address of `sub`; asserts all were present.
  void erase_all(const AddressBlock& sub);

  /// True iff every address of `sub` is in this block.
  bool contains_all(const AddressBlock& sub) const;

  /// Addresses in this block but not in `other`.
  AddressBlock minus(const AddressBlock& other) const;

  /// Removes and returns the lowest address; block must be non-empty.
  IpAddress pop_lowest();

  /// Splits off the upper half (⌈size/2⌉ stays, ⌊size/2⌋ leaves) and returns
  /// it.  The remaining lower half keeps this block's lowest address, so a
  /// head's identity address never migrates.  Block must hold ≥ 2 addresses.
  AddressBlock split_half();

  /// True iff no address is in both blocks.
  bool disjoint_with(const AddressBlock& other) const;

  const std::vector<Range>& ranges() const { return ranges_; }

  /// "[10.0.0.0-10.0.0.127], [10.0.1.3]" style rendering.
  std::string to_string() const;

  bool operator==(const AddressBlock&) const = default;

 private:
  /// Validates sortedness/coalescing in debug builds.
  void check_invariant() const;

  std::vector<Range> ranges_;
};

std::ostream& operator<<(std::ostream& os, const AddressBlock& block);

}  // namespace qip
