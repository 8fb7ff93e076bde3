// FNV-1a 64-bit — the content-address hash shared by the serving cache
// (serve/simcache.h) and the sweep journal (core/sweepjournal.h). One
// definition so cache keys and journal checksums can never drift apart.
#pragma once

#include <cstdint>
#include <string_view>

namespace sqz::util {

/// `h` continues a running hash, so fnv1a64(b, fnv1a64(a)) hashes a + b.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t h = 0xcbf29ce484222325ull) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

}  // namespace sqz::util
