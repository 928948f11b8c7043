// Uniform-grid spatial index for O(1) expected-time range queries.
//
// Neighbor discovery ("all nodes within transmission range r of p") is the
// hottest geometric query in the simulator: it runs after every movement
// step.  The grid cell size equals the query radius so a query inspects at
// most the 3×3 cell neighborhood.  The index keeps positions only; the
// topology cache derives adjacency from it, keyed off the one mutation
// epoch below.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "util/assert.hpp"

namespace qip {

/// Spatial hash keyed by opaque integer ids.  Ids must be inserted before
/// being moved or queried, and removed when the owning node leaves.
class GridIndex {
 public:
  /// `cell` should match the dominant query radius (transmission range).
  explicit GridIndex(double cell) : cell_(cell) { QIP_ASSERT(cell > 0.0); }

  void insert(std::uint32_t id, const Point& p);
  void remove(std::uint32_t id);
  void move(std::uint32_t id, const Point& p);
  bool contains(std::uint32_t id) const { return where_.count(id) != 0; }
  const Point& position(std::uint32_t id) const;
  std::size_t size() const { return where_.size(); }

  /// Monotone mutation counter: every insert/remove/move bumps it, so a
  /// consumer can tell "nothing changed since I looked" with one compare.
  /// Starts at 0; the first mutation makes it 1.
  std::uint64_t epoch() const { return epoch_; }

  /// All ids within `radius` of `center` (excluding `exclude` if given).
  /// Distance is inclusive — d <= radius counts, so two nodes exactly a
  /// transmission range apart are connected, matching the unit-disk model.
  std::vector<std::uint32_t> query(const Point& center, double radius,
                                   std::int64_t exclude = -1) const;

  /// Same query into a caller-owned buffer (cleared first), so repeated
  /// callers — the topology cache computing snapshot rows — reuse one
  /// allocation.
  void query_into(const Point& center, double radius, std::int64_t exclude,
                  std::vector<std::uint32_t>& out) const;

  /// Applies `fn(id, point)` to every entry (iteration order unspecified).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [id, entry] : where_) fn(id, entry.pos);
  }

 private:
  struct CellKey {
    std::int64_t cx;
    std::int64_t cy;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const {
      // 2-D -> 1-D mix; constants from SplitMix64.
      std::uint64_t h = static_cast<std::uint64_t>(k.cx) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<std::uint64_t>(k.cy) + 0xbf58476d1ce4e5b9ULL + (h << 6) +
           (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };
  struct Entry {
    Point pos;
    CellKey cell;
  };
  /// Bucket slot: the position rides along with the id so a range query
  /// never pays a hash lookup per candidate.
  struct Slot {
    std::uint32_t id;
    Point pos;
  };

  CellKey key_for(const Point& p) const {
    return {static_cast<std::int64_t>(std::floor(p.x / cell_)),
            static_cast<std::int64_t>(std::floor(p.y / cell_))};
  }

  double cell_;
  std::unordered_map<CellKey, std::vector<Slot>, CellKeyHash> cells_;
  std::unordered_map<std::uint32_t, Entry> where_;
  std::uint64_t epoch_ = 0;
};

}  // namespace qip
