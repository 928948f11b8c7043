// Open-addressing hash map with contiguous storage.
//
// A drop-in replacement for the std::unordered_map uses on hot paths: one
// flat slot array (linear probing, power-of-two capacity, tombstone
// deletion), so lookups touch one cache line in the common case and the
// map performs zero per-node allocations.  Iteration order is the probe
// order — unspecified, like unordered_map — so callers that expose order
// must sort.
//
// Requirements: K and V default-constructible and copy/move-assignable,
// std::hash<K> specialized.  The default-constructed K is a valid key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace qip {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatHashMap {
 public:
  /// Pointer to the value for `key`, or nullptr.
  V* find(const K& key) {
    const std::size_t s = locate(key);
    return s == kNpos ? nullptr : &slots_[s].value;
  }
  const V* find(const K& key) const {
    const std::size_t s = locate(key);
    return s == kNpos ? nullptr : &slots_[s].value;
  }

  bool contains(const K& key) const { return locate(key) != kNpos; }

  /// Value for `key`, default-constructed on first access.
  V& operator[](const K& key) {
    reserve_one();
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = mix(key) & mask;
    std::size_t first_tomb = kNpos;
    while (true) {
      Slot& slot = slots_[s];
      if (slot.state == State::kFull && slot.key == key) return slot.value;
      if (slot.state == State::kTomb && first_tomb == kNpos) first_tomb = s;
      if (slot.state == State::kEmpty) {
        const std::size_t dst = first_tomb != kNpos ? first_tomb : s;
        Slot& out = slots_[dst];
        if (out.state == State::kTomb) --tombs_;
        out.state = State::kFull;
        out.key = key;
        out.value = V{};
        ++size_;
        return out.value;
      }
      s = (s + 1) & mask;
    }
  }

  /// Inserts (key, value) if absent.  Returns (value slot, inserted).
  std::pair<V*, bool> emplace(const K& key, V value) {
    if (V* existing = find(key)) return {existing, false};
    V& v = (*this)[key];
    v = std::move(value);
    return {&v, true};
  }

  bool erase(const K& key) {
    const std::size_t s = locate(key);
    if (s == kNpos) return false;
    slots_[s].state = State::kTomb;
    slots_[s].value = V{};  // release payload resources promptly
    --size_;
    ++tombs_;
    return true;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
    tombs_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.state == State::kFull) fn(s.key, s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.state == State::kFull) fn(s.key, s.value);
    }
  }

 private:
  enum class State : std::uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };
  struct Slot {
    K key{};
    V value{};
    State state = State::kEmpty;
  };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  static std::size_t mix(const K& key) {
    // Fibonacci scramble: std::hash of an integral key is often the
    // identity, which clusters sequential keys under power-of-two masking.
    return Hash{}(key)*std::size_t{0x9e3779b97f4a7c15u};
  }

  std::size_t locate(const K& key) const {
    if (slots_.empty()) return kNpos;
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = mix(key) & mask;
    while (true) {
      const Slot& slot = slots_[s];
      if (slot.state == State::kEmpty) return kNpos;
      if (slot.state == State::kFull && slot.key == key) return s;
      s = (s + 1) & mask;
    }
  }

  void reserve_one() {
    // Keep occupancy (live + tombstones) under 7/8 so probes stay short.
    if (slots_.empty()) {
      slots_.resize(16);
      return;
    }
    if ((size_ + tombs_ + 1) * 8 < slots_.size() * 7) return;
    // Grow when live entries dominate, else rehash in place to purge tombs.
    const std::size_t cap =
        size_ * 4 >= slots_.size() ? slots_.size() * 2 : slots_.size();
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(cap);
    size_ = 0;
    tombs_ = 0;
    for (Slot& s : old) {
      if (s.state == State::kFull) {
        (*this)[s.key] = std::move(s.value);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace qip
