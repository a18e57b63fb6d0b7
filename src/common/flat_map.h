// Open-addressing flat hash map for the simulation hot path.
//
// Linear probing over one contiguous slot array (power-of-two capacity),
// tombstoned erase with automatic in-place rehash when dead slots pile up.
// Compared to std::unordered_map this removes the per-node heap allocation
// and pointer chase on every lookup, which dominates the simulator's inner
// loops (message stores, neighbor tables, membership indexes).
//
// Requirements and guarantees:
//  - Key and T must be default-constructible and movable (slots are storage,
//    not node pointers). Erased values are reset to T{} so owned resources
//    (e.g. vector capacity) are released eagerly.
//  - Iteration order is a pure function of the operation history and the
//    hash function — deterministic across runs, but NOT insertion order and
//    NOT stable across rehash.
//  - Iterators/pointers invalidate on rehash. Only inserting a NEW key can
//    rehash; try_emplace/operator[]/insert on an already-present key never
//    invalidates (same rule as std::unordered_map lookups). erase(it) never
//    moves elements, so erase-while-iterating loops are safe:
//    `it = map.erase(it)`.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace gocast::common {

template <class Key, class T, class Hash = std::hash<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, T>;
  using size_type = std::size_t;

  template <bool Const>
  class Iter {
   public:
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;

    /// Conversion iterator -> const_iterator.
    template <bool C = Const, class = std::enable_if_t<C>>
    Iter(const Iter<false>& other)
        : slots_(other.slots_),
          bits_(other.bits_),
          idx_(other.idx_),
          cap_(other.cap_) {}

    reference operator*() const { return slots_[idx_]; }
    pointer operator->() const { return slots_ + idx_; }

    Iter& operator++() {
      ++idx_;
      skip_to_full();
      return *this;
    }
    Iter operator++(int) {
      Iter tmp = *this;
      ++(*this);
      return tmp;
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.idx_ != b.idx_;
    }

   private:
    friend class FlatMap;
    template <bool>
    friend class Iter;

    // Iteration walks the occupancy bitmap (one bit per slot) with
    // count-trailing-zeros rather than checking a state byte per slot: a
    // sparse table sweep is then a couple of word loads instead of a
    // data-dependent branch per slot. Table sweeps are a protocol hot path
    // (neighbor-table scans, piggyback assembly), and byte-wise skipping
    // mispredicts on every full/empty transition.
    void skip_to_full() {
      if (idx_ >= cap_) {
        idx_ = cap_;
        return;
      }
      size_type word = idx_ >> 6;
      const size_type words = (cap_ + 63) >> 6;
      std::uint64_t w = bits_[word] & (~std::uint64_t{0} << (idx_ & 63));
      while (w == 0) {
        if (++word >= words) {
          idx_ = cap_;
          return;
        }
        w = bits_[word];
      }
      idx_ = (word << 6) + static_cast<size_type>(std::countr_zero(w));
    }

    pointer slots_ = nullptr;
    const std::uint64_t* bits_ = nullptr;
    size_type idx_ = 0;
    size_type cap_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;

  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Current slot-array capacity (diagnostics; 0 before first insert).
  [[nodiscard]] size_type capacity() const { return states_.size(); }

  /// Heap bytes owned by the table, including the scratch buffers retained
  /// across rehashes (memory accounting for --mem-report).
  [[nodiscard]] std::size_t memory_bytes() const {
    return (slots_.capacity() + scratch_slots_.capacity()) *
               sizeof(value_type) +
           (states_.capacity() + scratch_states_.capacity()) * sizeof(State) +
           full_bits_.capacity() * sizeof(std::uint64_t);
  }

  [[nodiscard]] iterator begin() {
    iterator it = iterator_at(0);
    it.skip_to_full();
    return it;
  }
  [[nodiscard]] iterator end() { return iterator_at(states_.size()); }
  [[nodiscard]] const_iterator begin() const {
    const_iterator it = const_iterator_at(0);
    it.skip_to_full();
    return it;
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator_at(states_.size());
  }

  /// Pre-sizes the table for `n` elements without rehashing on the way there.
  void reserve(size_type n) {
    size_type needed = required_capacity(n);
    if (needed > states_.size()) rehash(needed);
  }

  void clear() {
    for (size_type i = 0; i < states_.size(); ++i) {
      if (states_[i] == State::kFull) slots_[i] = value_type{};
      states_[i] = State::kEmpty;
    }
    std::fill(full_bits_.begin(), full_bits_.end(), 0);
    size_ = 0;
    dead_ = 0;
  }

  [[nodiscard]] iterator find(const Key& key) {
    size_type idx = find_index(key);
    return idx == npos ? end() : iterator_at(idx);
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    size_type idx = find_index(key);
    return idx == npos ? end() : const_iterator_at(idx);
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return find_index(key) != npos;
  }
  [[nodiscard]] size_type count(const Key& key) const {
    return contains(key) ? 1 : 0;
  }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    if (states_.empty()) rehash(kMinCapacity);
    auto [idx, inserted] = probe_for_insert(key);
    if (!inserted) return {iterator_at(idx), false};
    // Grow only when a new key is actually being inserted, so try_emplace /
    // operator[] on a present key never rehashes (matches unordered_map's
    // rule that lookup of an existing key never invalidates). The load
    // invariant (size_+dead_ <= 7/8 cap after every insert) guarantees the
    // pre-grow probe above always terminates on an empty slot.
    if (size_type cap = states_.size(); (size_ + dead_ + 1) * 8 > cap * 7) {
      // Double only when genuinely loaded; if tombstones dominate, rehash at
      // the same capacity to reclaim them (steady-state churn stays O(1)).
      rehash(size_ + 1 > cap - cap / 4 ? cap * 2 : cap);
      idx = probe_for_insert(key).first;  // slot moved with the rehash
    }
    if (states_[idx] == State::kDead) --dead_;  // tombstone reclaimed
    slots_[idx].first = key;
    slots_[idx].second = T(std::forward<Args>(args)...);
    states_[idx] = State::kFull;
    set_bit(idx);
    ++size_;
    return {iterator_at(idx), true};
  }

  std::pair<iterator, bool> insert(const value_type& value) {
    return try_emplace(value.first, value.second);
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  /// Erases by key; returns the number of elements removed (0 or 1).
  size_type erase(const Key& key) {
    size_type idx = find_index(key);
    if (idx == npos) return 0;
    erase_at(idx);
    return 1;
  }

  /// Erases the pointed-to element; returns an iterator to the next element.
  /// No element moves, so erase-while-iterating is safe.
  iterator erase(const_iterator pos) {
    const size_type idx = pos.idx_;
    GOCAST_ASSERT(pos.slots_ == slots_.data() && idx < states_.size());
    GOCAST_ASSERT(states_[idx] == State::kFull);
    erase_at(idx);
    iterator next = iterator_at(idx + 1);
    next.skip_to_full();
    return next;
  }

 private:
  enum class State : std::uint8_t { kEmpty = 0, kFull, kDead };

  static constexpr size_type npos = static_cast<size_type>(-1);
  static constexpr size_type kMinCapacity = 8;

  void set_bit(size_type i) {
    full_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_bit(size_type i) {
    full_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Iterator positioned at `idx` WITHOUT skipping to the next full slot —
  /// used for find/try_emplace results, which always point at a full slot.
  [[nodiscard]] iterator iterator_at(size_type idx) {
    iterator it;
    it.slots_ = slots_.data();
    it.bits_ = full_bits_.data();
    it.idx_ = idx;
    it.cap_ = states_.size();
    return it;
  }
  [[nodiscard]] const_iterator const_iterator_at(size_type idx) const {
    const_iterator it;
    it.slots_ = slots_.data();
    it.bits_ = full_bits_.data();
    it.idx_ = idx;
    it.cap_ = states_.size();
    return it;
  }

  /// Smallest power-of-two capacity that keeps `n` elements under the max
  /// load factor of 7/8.
  [[nodiscard]] static size_type required_capacity(size_type n) {
    size_type cap = kMinCapacity;
    while (cap - cap / 8 < n) cap <<= 1;
    return cap;
  }

  [[nodiscard]] size_type find_index(const Key& key) const {
    if (states_.empty()) return npos;
    size_type mask = states_.size() - 1;
    size_type idx = Hash{}(key)&mask;
    while (true) {
      State s = states_[idx];
      if (s == State::kEmpty) return npos;
      if (s == State::kFull && slots_[idx].first == key) return idx;
      idx = (idx + 1) & mask;
    }
  }

  /// Finds the slot for `key`: {index of existing element, false} or
  /// {index of the insertion slot, true}. Pure probe — dead_ accounting for a
  /// reclaimed tombstone happens at the insertion site (the caller may probe,
  /// rehash, and probe again before committing the insert).
  [[nodiscard]] std::pair<size_type, bool> probe_for_insert(
      const Key& key) const {
    size_type mask = states_.size() - 1;
    size_type idx = Hash{}(key)&mask;
    size_type first_dead = npos;
    while (true) {
      State s = states_[idx];
      if (s == State::kFull && slots_[idx].first == key) return {idx, false};
      if (s == State::kDead && first_dead == npos) first_dead = idx;
      if (s == State::kEmpty) {
        return {first_dead != npos ? first_dead : idx, true};
      }
      idx = (idx + 1) & mask;
    }
  }

  void erase_at(size_type idx) {
    slots_[idx] = value_type{};  // release owned resources eagerly
    states_[idx] = State::kDead;
    clear_bit(idx);
    ++dead_;
    --size_;
  }

  /// Scratch buffers above this footprint are freed after a rehash instead
  /// of retained. Retention only pays at steady-state same-capacity rehashes
  /// (growth rehashes resize the scratch anyway), where the rehash's own
  /// O(capacity) rebuild dwarfs one malloc/free pair — so for big tables the
  /// retained buffers are pure resident memory. Small hot-path tables (the
  /// common case: a few dozen entries, rehashing every O(capacity) erases)
  /// keep the allocation-free behavior.
  static constexpr std::size_t kScratchRetainBytes = 1024;

  void rehash(size_type new_capacity) {
    GOCAST_ASSERT((new_capacity & (new_capacity - 1)) == 0);
    // Swap with retained scratch buffers instead of allocating fresh ones:
    // steady-state churn (erase+insert at constant size) triggers a
    // same-capacity rehash every O(capacity) operations, and paying a
    // malloc/free pair each time dominates small hot-path tables. After the
    // first rehash at a given capacity this is allocation-free.
    std::swap(slots_, scratch_slots_);
    std::swap(states_, scratch_states_);
    for (auto& v : slots_) v = value_type{};  // clear stale moved-from values
    slots_.resize(new_capacity);
    states_.assign(new_capacity, State::kEmpty);
    full_bits_.assign((new_capacity + 63) / 64, 0);
    dead_ = 0;
    size_type mask = new_capacity - 1;
    for (size_type i = 0; i < scratch_states_.size(); ++i) {
      if (scratch_states_[i] != State::kFull) continue;
      size_type idx = Hash{}(scratch_slots_[i].first) & mask;
      while (states_[idx] == State::kFull) idx = (idx + 1) & mask;
      slots_[idx] = std::move(scratch_slots_[i]);
      states_[idx] = State::kFull;
      set_bit(idx);
    }
    if (scratch_slots_.capacity() * sizeof(value_type) > kScratchRetainBytes) {
      // Swap, not `= {}`: assigning an empty braced list clears the vector
      // but keeps its capacity.
      std::vector<value_type>().swap(scratch_slots_);
      std::vector<State>().swap(scratch_states_);
    }
  }

  std::vector<value_type> slots_;
  std::vector<State> states_;
  std::vector<std::uint64_t> full_bits_;  // one bit per slot: occupied
  std::vector<value_type> scratch_slots_;  // retained across rehashes
  std::vector<State> scratch_states_;
  size_type size_ = 0;
  size_type dead_ = 0;
};

}  // namespace gocast::common
