#include "serve/simcache.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/faultinject.h"
#include "util/hash.h"
#include "util/logging.h"

namespace sqz::serve {

namespace fs = std::filesystem;

namespace {

// Disk entry layout: one header line, then the raw payload.
//   "sqzc1 <key-bytes> <value-bytes> <fnv1a-of-payload, 16 hex>\n<key><value>"
// The lengths make arbitrary key/value bytes unambiguous; the checksum is
// computed over the payload (key then value), so a flipped bit, a truncated
// tail, or a stale pre-checksum file all fail verification the same way.
constexpr char kMagic[] = "sqzc1";

std::string render_header(std::size_t key_len, std::size_t value_len,
                          std::uint64_t checksum) {
  char header[96];
  std::snprintf(header, sizeof(header), "%s %zu %zu %016llx\n", kMagic,
                key_len, value_len,
                static_cast<unsigned long long>(checksum));
  return header;
}

}  // namespace

SimCache::Value::Value(std::string_view bytes) : size_(bytes.size()) {
  if (bytes.size() >= kMappedValueBytes) {
    // MAP_POPULATE faults every page in with the mapping, which costs less
    // than one fault per page on the first write.
    void* pages = ::mmap(nullptr, bytes.size(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (pages != MAP_FAILED) {
      mapped_ = std::unique_ptr<char, Unmap>(static_cast<char*>(pages),
                                             Unmap{bytes.size()});
      std::memcpy(mapped_.get(), bytes.data(), bytes.size());
      return;
    }
  }
  heap_.assign(bytes);
}

void SimCache::Value::Unmap::operator()(char* pages) const noexcept {
  ::munmap(pages, length);
}

std::uint64_t SimCache::fnv1a(std::string_view bytes) noexcept {
  return util::fnv1a64(bytes);
}

SimCache::SimCache(std::size_t max_entries, const std::string& disk_dir)
    : max_entries_(max_entries < 1 ? 1 : max_entries), disk_dir_(disk_dir) {
  if (!disk_dir_.empty()) {
    std::error_code ec;
    fs::create_directories(disk_dir_, ec);
    if (ec || !fs::is_directory(disk_dir_))
      throw std::runtime_error("simcache: cannot create cache dir '" +
                               disk_dir_ + "'");
    scan_disk_tier();
  }
}

// Startup sweep for leftovers of a killed process: half-written `*.tmp`
// files are deleted (their rename never happened, so no reader can see
// them), zero-length published entries are quarantined. Anything the sweep
// cannot stat is skipped — the lazy checksum on read is the real gate.
void SimCache::scan_disk_tier() {
  std::error_code ec;
  fs::directory_iterator it(disk_dir_, ec), end;
  if (ec) {
    SQZ_LOG(Warn) << "simcache: cannot scan cache dir '" << disk_dir_
                  << "': " << ec.message();
    return;
  }
  for (; it != end; it.increment(ec)) {
    if (ec) break;
    const fs::path path = it->path();
    std::error_code file_ec;
    if (!fs::is_regular_file(path, file_ec) || file_ec) continue;
    if (path.extension() == ".tmp") {
      fs::remove(path, file_ec);
      continue;
    }
    if (path.extension() != ".sqz") continue;
    const std::uintmax_t size = fs::file_size(path, file_ec);
    if (file_ec) continue;  // unreadable: leave it to the lazy read path
    if (size == 0) quarantine(path.string(), "zero-length entry");
  }
}

std::string SimCache::disk_path(std::uint64_t hash) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.sqz",
                static_cast<unsigned long long>(hash));
  return disk_dir_ + "/" + name;
}

void SimCache::quarantine(const std::string& path, const std::string& why) {
  const std::string bad = path + ".bad";
  if (std::rename(path.c_str(), bad.c_str()) != 0) {
    std::remove(path.c_str());  // rename failed: at least stop re-reading it
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_quarantined;
  }
  SQZ_LOG(Warn) << "simcache: quarantined corrupt entry " << path << " ("
                << why << ")";
}

void SimCache::note_disk_error(const std::string& what) {
  bool demote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_errors;
    if (++disk_failure_streak_ >= kDiskFailureLimit &&
        !disk_demoted_.load(std::memory_order_relaxed)) {
      demote = true;
    }
  }
  if (demote) {
    disk_demoted_.store(true, std::memory_order_relaxed);
    SQZ_LOG(Warn) << "simcache: " << kDiskFailureLimit
                  << " consecutive disk failures (last: " << what
                  << "); demoting to memory-only cache";
  } else {
    SQZ_LOG(Warn) << "simcache: disk tier " << what;
  }
}

void SimCache::note_disk_ok() {
  std::lock_guard<std::mutex> lock(mu_);
  disk_failure_streak_ = 0;
}

std::optional<std::string> SimCache::get(const std::string& canonical_key) {
  const std::uint64_t hash = fnv1a(canonical_key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(hash);
    if (it != index_.end() && it->second->key == canonical_key) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      return std::string(it->second->value.view());
    }
  }
  if (disk_enabled()) {
    if (auto value = disk_get(hash, canonical_key)) {
      Value promoted(*value);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.hits;
      ++stats_.disk_hits;
      insert_locked(hash, canonical_key, std::move(promoted));  // to memory
      return value;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  return std::nullopt;
}

void SimCache::put(std::string canonical_key, std::string_view value) {
  const std::uint64_t hash = fnv1a(canonical_key);
  // Disk first: the memory tier then takes the key by move.
  if (disk_enabled()) disk_put(hash, canonical_key, value);
  Value stored(value);  // copied before the lock is taken
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.insertions;
  insert_locked(hash, std::move(canonical_key), std::move(stored));
}

void SimCache::insert_locked(std::uint64_t hash, std::string key,
                             Value value) {
  const auto it = index_.find(hash);
  if (it != index_.end()) {
    // Same hash: refresh (same key) or replace (collision — rarer than a
    // cosmic ray; last writer wins, the key guard keeps lookups correct).
    it->second->key = std::move(key);
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{hash, std::move(key), std::move(value)});
  index_[hash] = lru_.begin();
  while (lru_.size() > max_entries_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
}

void SimCache::disk_put(std::uint64_t hash, const std::string& canonical_key,
                        std::string_view value) {
  const std::string path = disk_path(hash);
  const std::string tmp = path + ".tmp";

  std::string record =
      render_header(canonical_key.size(), value.size(),
                    util::fnv1a64(value, util::fnv1a64(canonical_key)));
  record.reserve(record.size() + canonical_key.size() + value.size());
  record += canonical_key;
  record += value;

  // "simcache.write" fault point: Errno models a full/failing disk (the
  // write never lands), ShortIo models a crash after a partial write — the
  // truncated record is published so the read path's checksum must catch it.
  bool truncate_record = false;
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("simcache.write");
    if (a.kind == util::fault::Kind::Errno) {
      errno = a.err;
      note_disk_error(std::string("write failed: ") + std::strerror(errno));
      return;
    }
    if (a.kind == util::fault::Kind::ShortIo) {
      record.resize(std::min(record.size(), a.bytes));
      truncate_record = true;
    }
  }

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      note_disk_error("cannot open " + tmp);
      return;
    }
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      note_disk_error("write failed for " + tmp);
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {  // atomic publish
    std::remove(tmp.c_str());
    note_disk_error("rename failed for " + tmp);
    return;
  }
  if (!truncate_record) note_disk_ok();
}

std::optional<std::string> SimCache::disk_get(
    std::uint64_t hash, const std::string& canonical_key) {
  const std::string path = disk_path(hash);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // absent: an ordinary miss

  std::string raw;
  {
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad()) {
      note_disk_error("read failed for " + path);
      return std::nullopt;
    }
    raw = bytes.str();
  }

  // "simcache.read" fault point: Errno models a failing device, ShortIo
  // models a torn read — the verification below must reject the remainder.
  if (util::fault::enabled()) {
    const util::fault::Action a = util::fault::at("simcache.read");
    if (a.kind == util::fault::Kind::Errno) {
      errno = a.err;
      note_disk_error(std::string("read failed: ") + std::strerror(errno));
      return std::nullopt;
    }
    if (a.kind == util::fault::Kind::ShortIo)
      raw.resize(std::min(raw.size(), a.bytes));
  }

  // Verify the header and checksum; any violation quarantines the file.
  const std::size_t nl = raw.find('\n');
  unsigned long long key_len = 0, value_len = 0, stored_sum = 0;
  char magic[8] = {0};
  if (nl == std::string::npos || nl > 96 ||
      std::sscanf(raw.c_str(), "%7s %llu %llu %16llx", magic, &key_len,
                  &value_len, &stored_sum) != 4 ||
      std::string(magic) != kMagic) {
    quarantine(path, "bad header");
    return std::nullopt;
  }
  const std::string_view payload(raw.data() + nl + 1, raw.size() - nl - 1);
  if (payload.size() != key_len + value_len) {
    quarantine(path, "truncated payload");
    return std::nullopt;
  }
  if (fnv1a(payload) != stored_sum) {
    quarantine(path, "checksum mismatch");
    return std::nullopt;
  }
  note_disk_ok();
  if (payload.substr(0, key_len) != canonical_key)
    return std::nullopt;  // hash collision on disk: miss, never a wrong value
  return std::string(payload.substr(key_len, value_len));
}

SimCache::Stats SimCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.disk_demoted = disk_demoted_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sqz::serve
