// Deterministic randomness. Every component derives its generator from the
// experiment seed through named streams, so adding a new consumer of
// randomness never perturbs existing ones.
//
// Two storage modes draw the same numbers (DESIGN.md §6.5):
//   - Rng (eager): the std::mt19937_64 state (2.5 KB) lives inline. For hot
//     streams that draw on every gossip round or view update.
//   - SparseRng: stores the seed and the count of engine outputs consumed.
//     Each draw replays the stream on a thread-local scratch generator (seed,
//     discard, draw); after kPromoteAfter outputs the stream copies the
//     scratch into a generator it owns, which caps the replay cost. For
//     streams that draw a few dozen times per node lifetime, or only fork.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace gocast {

/// SplitMix64 step — used to derive well-mixed child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Stable 64-bit FNV-1a hash of a label, for naming RNG streams.
[[nodiscard]] std::uint64_t hash_label(std::string_view label);

namespace detail {

/// Engine seed of a stream with the given seed material.
[[nodiscard]] inline std::uint64_t engine_seed(std::uint64_t seed_material) {
  std::uint64_t s = seed_material;
  return splitmix64(s);
}

/// Eager storage: the generator lives inline and draws use it directly.
class EagerSource {
 public:
  explicit EagerSource(std::uint64_t seed_material)
      : engine_(engine_seed(seed_material)) {}

  template <typename Draw>
  auto draw(std::uint64_t /*seed_material*/, Draw&& d) {
    return d(engine_);
  }
  [[nodiscard]] std::size_t memory_bytes() const { return 0; }

 private:
  std::mt19937_64 engine_;
};

/// Per-thread replay generator shared by all sparse streams. `seed` and
/// `consumed` name the stream position the engine currently holds (the state
/// is a function of those two alone), so back-to-back draws from one stream
/// skip the replay.
struct SparseScratch {
  std::mt19937_64 engine;
  std::uint64_t seed = 0;
  std::uint64_t consumed = ~std::uint64_t{0};  // matches no stream
};
[[nodiscard]] SparseScratch& sparse_scratch();

/// Uniform random bit generator that forwards to `engine` and counts the
/// outputs it hands out. Same result_type/min/max as std::mt19937_64, so the
/// standard distributions take the same code path as on the bare engine.
struct CountingEngine {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() {
    ++*consumed;
    return (*engine)();
  }
  std::mt19937_64* engine;
  std::uint64_t* consumed;
};

/// Sparse storage: outputs consumed so far, plus the generator owned once
/// the stream has been promoted.
class SparseSource {
 public:
  /// Engine outputs after which a stream keeps its own generator. Idle
  /// per-node streams (overlay, pull-retry) draw well under this over a run.
  static constexpr std::uint64_t kPromoteAfter = 64;

  /// The seed lives in BasicRng and is passed to each draw.
  explicit SparseSource(std::uint64_t /*seed_material*/) {}

  SparseSource(const SparseSource& other)
      : consumed_(other.consumed_),
        owned_(other.owned_ ? std::make_unique<std::mt19937_64>(*other.owned_)
                            : nullptr) {}
  SparseSource& operator=(const SparseSource& other) {
    if (this != &other) *this = SparseSource(other);
    return *this;
  }
  SparseSource(SparseSource&&) noexcept = default;
  SparseSource& operator=(SparseSource&&) noexcept = default;

  template <typename Draw>
  auto draw(std::uint64_t seed_material, Draw&& d) {
    if (owned_) return d(*owned_);
    const std::uint64_t seed = engine_seed(seed_material);
    SparseScratch& s = sparse_scratch();
    if (s.seed != seed || s.consumed != consumed_) {
      s.engine.seed(seed);
      s.engine.discard(consumed_);
    }
    CountingEngine counted{&s.engine, &consumed_};
    auto result = d(counted);
    s.seed = seed;
    s.consumed = consumed_;
    if (consumed_ >= kPromoteAfter) {
      owned_ = std::make_unique<std::mt19937_64>(s.engine);
    }
    return result;
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return owned_ ? sizeof(std::mt19937_64) : 0;
  }

 private:
  std::uint64_t consumed_ = 0;
  std::unique_ptr<std::mt19937_64> owned_;
};

}  // namespace detail

/// A seeded random source over std::mt19937_64 that adds the handful of
/// sampling helpers the protocols need and supports deriving independent
/// child generators by label. `Source` picks the storage mode; both modes
/// yield the same values for the same seed and call sequence.
template <typename Source>
class BasicRng {
 public:
  explicit BasicRng(std::uint64_t seed) : source_(seed), seed_material_(seed) {}

  /// Child generator whose stream is independent of (and stable w.r.t.)
  /// this generator's own consumption. Depends only on the seed, so eager
  /// and sparse parents fork identical children.
  [[nodiscard]] BasicRng<detail::EagerSource> fork(
      std::string_view label) const {
    return BasicRng<detail::EagerSource>(label_seed(label));
  }

  /// Child generator derived from a numeric index (e.g. per-node streams).
  [[nodiscard]] BasicRng<detail::EagerSource> fork(std::uint64_t index) const {
    return BasicRng<detail::EagerSource>(index_seed(index));
  }

  /// fork() returning a sparse child (same stream).
  [[nodiscard]] BasicRng<detail::SparseSource> fork_sparse(
      std::string_view label) const {
    return BasicRng<detail::SparseSource>(label_seed(label));
  }
  [[nodiscard]] BasicRng<detail::SparseSource> fork_sparse(
      std::uint64_t index) const {
    return BasicRng<detail::SparseSource>(index_seed(index));
  }

  /// Uniform integer in [0, bound). bound must be positive.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) {
    GOCAST_ASSERT(bound > 0);
    return draw([bound](auto& engine) {
      return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine);
    });
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_unit() {
    return draw([](auto& engine) {
      return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    });
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double next_range(double lo, double hi) {
    GOCAST_ASSERT(lo <= hi);
    return draw([lo, hi](auto& engine) {
      return std::uniform_real_distribution<double>(lo, hi)(engine);
    });
  }

  /// Normal deviate.
  [[nodiscard]] double next_gaussian(double mean, double stddev) {
    return draw([mean, stddev](auto& engine) {
      return std::normal_distribution<double>(mean, stddev)(engine);
    });
  }

  /// Bernoulli trial.
  [[nodiscard]] bool next_bool(double p_true) {
    return draw([p_true](auto& engine) {
      return std::bernoulli_distribution(p_true)(engine);
    });
  }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& v) {
    GOCAST_ASSERT(!v.empty());
    return v[static_cast<std::size_t>(next_below(v.size()))];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Reservoir-samples k distinct positions of v (order unspecified).
  template <typename T>
  [[nodiscard]] std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> out;
    out.reserve(std::min(k, v.size()));
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (out.size() < k) {
        out.push_back(v[i]);
      } else {
        std::size_t j = static_cast<std::size_t>(next_below(i + 1));
        if (j < k) out[j] = v[i];
      }
    }
    return out;
  }

  /// Heap bytes held beyond sizeof(*this): a promoted sparse stream's
  /// generator, else 0.
  [[nodiscard]] std::size_t memory_bytes() const {
    return source_.memory_bytes();
  }

 private:
  template <typename Draw>
  auto draw(Draw&& d) {
    return source_.draw(seed_material_, std::forward<Draw>(d));
  }

  [[nodiscard]] std::uint64_t label_seed(std::string_view label) const {
    return seed_material_ ^ hash_label(label);
  }
  [[nodiscard]] std::uint64_t index_seed(std::uint64_t index) const {
    std::uint64_t s = seed_material_ + 0x632be59bd9b4e019ULL * (index + 1);
    return splitmix64(s);
  }

  Source source_;
  std::uint64_t seed_material_ = 0;
};

using Rng = BasicRng<detail::EagerSource>;
using SparseRng = BasicRng<detail::SparseSource>;

}  // namespace gocast
