#include "common/rng.h"

namespace gocast {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  // One extra mixing round: FNV alone is weak in the high bits.
  std::uint64_t s = h;
  return splitmix64(s);
}

namespace detail {

SparseScratch& sparse_scratch() {
  thread_local SparseScratch scratch;
  return scratch;
}

}  // namespace detail

}  // namespace gocast
