// Content-addressed result cache for the simulation service.
//
// Keys are the FNV-1a 64-bit hash of a *canonicalized* request (see
// serve/api.h: zoo names resolve to the serialized model text, configs
// render through config_to_ini, options take a fixed field order), so two
// requests that mean the same simulation share one entry regardless of how
// the client spelled them. The hash indexes the tiers; the full canonical
// key is stored alongside each value and compared on lookup, so a 64-bit
// collision degrades to a miss, never to a wrong result.
//
// Two tiers:
//   - in-memory, LRU-bounded by entry count (repeat design points return in
//     microseconds);
//   - optional on-disk (`--cache-dir`): one file per key, written on every
//     insert, read (and promoted to memory) on a memory miss. Unbounded;
//     survives daemon restarts. Entries are immutable — the same canonical
//     request always produces the same bytes — so files are never updated
//     in place, and concurrent daemons may safely share a directory.
//
// The disk tier trusts nothing it reads back (ARCHITECTURE.md "Fault
// tolerance"): every entry carries an FNV-1a checksum in its header,
// verified on read. A corrupt or truncated entry is quarantined (renamed
// `*.bad`) and treated as a miss, never served. Construction sweeps the
// directory for crashed-writer leftovers (`*.tmp` removed, zero-length
// entries quarantined). Persistent I/O failures demote the cache to
// memory-only with a logged warning instead of failing requests; the
// "simcache.read" / "simcache.write" fault points (util/faultinject.h) let
// tests drive every one of those paths deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sqz::serve {

class SimCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< Served from memory or disk.
    std::uint64_t disk_hits = 0;   ///< Subset of hits that came from disk.
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   ///< Memory-tier LRU evictions.
    std::size_t entries = 0;       ///< Current memory-tier size.
    std::uint64_t disk_quarantined = 0;  ///< Corrupt entries renamed *.bad.
    std::uint64_t disk_errors = 0;       ///< Read/write failures absorbed.
    bool disk_demoted = false;  ///< True once demoted to memory-only.
  };

  /// Consecutive disk failures tolerated before the disk tier is demoted
  /// to memory-only for the rest of the process.
  static constexpr int kDiskFailureLimit = 4;

  /// `max_entries` bounds the memory tier (>= 1). `disk_dir` enables the
  /// on-disk tier; the directory is created if missing (throws
  /// std::runtime_error when that fails).
  explicit SimCache(std::size_t max_entries, const std::string& disk_dir = "");

  SimCache(const SimCache&) = delete;
  SimCache& operator=(const SimCache&) = delete;

  /// Look up a canonicalized request. Thread-safe.
  std::optional<std::string> get(const std::string& canonical_key);

  /// Insert a result. Re-inserting an existing key refreshes its LRU slot;
  /// values are assumed immutable per key. The key is moved in; the value
  /// is copied once, into storage of its own (see kMappedValueBytes).
  /// Thread-safe.
  void put(std::string canonical_key, std::string_view value);

  /// Values of at least this many bytes get their own anonymous page
  /// mapping instead of a heap block. Result bodies of one network differ
  /// by a few hundred bytes from config to config, so in a heap the block
  /// an eviction frees is often just too small for the next body, and the
  /// holes add up to a growing share of the daemon's peak memory; a
  /// mapping returns its pages to the kernel on eviction and leaves no
  /// hole. The price is under one page per value, which is why small
  /// values stay on the heap.
  static constexpr std::size_t kMappedValueBytes = 32 * 1024;

  Stats stats() const;

  /// FNV-1a 64-bit over arbitrary bytes — the content address.
  static std::uint64_t fnv1a(std::string_view bytes) noexcept;

 private:
  /// One cached value's bytes: page-mapped from kMappedValueBytes up (on
  /// the heap if the mapping fails), a heap string below that.
  class Value {
   public:
    explicit Value(std::string_view bytes);
    std::string_view view() const noexcept {
      return mapped_ ? std::string_view(mapped_.get(), size_)
                     : std::string_view(heap_);
    }

   private:
    struct Unmap {
      std::size_t length;
      void operator()(char* pages) const noexcept;
    };
    std::unique_ptr<char, Unmap> mapped_;
    std::size_t size_ = 0;
    std::string heap_;
  };

  struct Entry {
    std::uint64_t hash;
    std::string key;    ///< Full canonical key, collision guard.
    Value value;
  };

  std::optional<std::string> disk_get(std::uint64_t hash,
                                      const std::string& canonical_key);
  void disk_put(std::uint64_t hash, const std::string& canonical_key,
                std::string_view value);
  void insert_locked(std::uint64_t hash, std::string key, Value value);
  std::string disk_path(std::uint64_t hash) const;
  void scan_disk_tier();
  void quarantine(const std::string& path, const std::string& why);
  void note_disk_error(const std::string& what);
  void note_disk_ok();
  bool disk_enabled() const {
    return !disk_dir_.empty() && !disk_demoted_.load(std::memory_order_relaxed);
  }

  const std::size_t max_entries_;
  const std::string disk_dir_;
  std::atomic<bool> disk_demoted_{false};

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
  int disk_failure_streak_ = 0;  ///< Consecutive failures; reset on success.
};

}  // namespace sqz::serve
