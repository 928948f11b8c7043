#include "geom/grid_index.hpp"

#include <algorithm>

namespace qip {

namespace {

template <typename Bucket>
auto slot_for(Bucket& bucket, std::uint32_t id) {
  return std::find_if(bucket.begin(), bucket.end(),
                      [id](const auto& s) { return s.id == id; });
}

}  // namespace

void GridIndex::insert(std::uint32_t id, const Point& p) {
  QIP_ASSERT_MSG(!contains(id), "id " << id << " already indexed");
  const CellKey key = key_for(p);
  cells_[key].push_back({id, p});
  where_.emplace(id, Entry{p, key});
  ++epoch_;
}

void GridIndex::remove(std::uint32_t id) {
  auto it = where_.find(id);
  QIP_ASSERT_MSG(it != where_.end(), "id " << id << " not indexed");
  auto cell_it = cells_.find(it->second.cell);
  QIP_ASSERT(cell_it != cells_.end());
  auto& bucket = cell_it->second;
  bucket.erase(slot_for(bucket, id));
  if (bucket.empty()) cells_.erase(cell_it);
  where_.erase(it);
  ++epoch_;
}

void GridIndex::move(std::uint32_t id, const Point& p) {
  auto it = where_.find(id);
  QIP_ASSERT_MSG(it != where_.end(), "id " << id << " not indexed");
  const CellKey new_key = key_for(p);
  if (new_key == it->second.cell) {
    slot_for(cells_[new_key], id)->pos = p;
  } else {
    auto& old_bucket = cells_[it->second.cell];
    old_bucket.erase(slot_for(old_bucket, id));
    if (old_bucket.empty()) cells_.erase(it->second.cell);
    cells_[new_key].push_back({id, p});
    it->second.cell = new_key;
  }
  it->second.pos = p;
  ++epoch_;  // a same-cell move still changes the position
}

const Point& GridIndex::position(std::uint32_t id) const {
  auto it = where_.find(id);
  QIP_ASSERT_MSG(it != where_.end(), "id " << id << " not indexed");
  return it->second.pos;
}

std::vector<std::uint32_t> GridIndex::query(const Point& center, double radius,
                                            std::int64_t exclude) const {
  std::vector<std::uint32_t> out;
  query_into(center, radius, exclude, out);
  return out;
}

void GridIndex::query_into(const Point& center, double radius,
                           std::int64_t exclude,
                           std::vector<std::uint32_t>& out) const {
  QIP_ASSERT(radius > 0.0);
  out.clear();
  const double r_sq = radius * radius;
  // The query radius can exceed the cell size (rare but allowed); widen the
  // cell window accordingly.
  const auto span = static_cast<std::int64_t>(std::ceil(radius / cell_));
  const CellKey base = key_for(center);
  for (std::int64_t dx = -span; dx <= span; ++dx) {
    for (std::int64_t dy = -span; dy <= span; ++dy) {
      auto it = cells_.find({base.cx + dx, base.cy + dy});
      if (it == cells_.end()) continue;
      for (const Slot& s : it->second) {
        if (static_cast<std::int64_t>(s.id) == exclude) continue;
        if (distance_sq(s.pos, center) <= r_sq) out.push_back(s.id);
      }
    }
  }
}

}  // namespace qip
