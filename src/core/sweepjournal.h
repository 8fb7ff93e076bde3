// Write-ahead journal for design-space sweeps: crash safety for the batch
// path (ARCHITECTURE.md "Crash safety & resumable sweeps").
//
// A sweep evaluates hundreds of independent design points over hours; a
// SIGKILL (OOM killer, preempted batch node, ctrl-C) must not lose the
// points already computed. The journal is a single append-only file
// (`<dir>/sweep.sqzj`) of framed, typed records:
//
//   "<magic> <key-bytes> <value-bytes> <fnv1a-of-payload, 16 hex>\n<key><value>"
//
// Record types share the framing and differ only in the 5-byte magic
// ("sqz" + two type characters). This build writes one type:
//
//   sqzw1  completed design point. Key = the canonical design-point string
//          (core/dse.h design_point_key — the same canonicalization
//          discipline as the serving cache, serve/simcache.h); value = the
//          point's metrics as compact JSON whose numbers round-trip
//          bit-exactly (util/json.h), so a resumed sweep reproduces the
//          uninterrupted dump byte for byte.
//
// Any other record whose magic is "sqz??" is *skipped with a warning* —
// provided its checksum verifies — instead of ending recovery, and counted
// in Recovery::skipped. Journals from builds that also wrote sqzm1 fleet
// membership events therefore still recover every point. Only a record
// that fails its checksum (bit rot, torn write) ends the trusted prefix.
//
// Atomicity comes from the framing, not from rename tricks: appends are
// flushed record-at-a-time, and a crash can only tear the *tail* record.
// Opening the journal replays the valid prefix, then truncates any torn
// tail so subsequent appends start on a clean frame — the classic WAL
// recovery. A record whose checksum fails mid-file (bit rot) also ends the
// trusted prefix: nothing after a bad frame is believed. The
// "sweepjournal.append" fault point (util/faultinject.h) lets chaos tests
// tear a record deterministically.
//
// Single-writer fence: a journal directory has exactly one writer at a
// time, enforced with an exclusive flock(2) on `<dir>/sweep.lock` held for
// the journal's lifetime. Opening a directory whose lock another *live*
// process (or object) holds throws SweepJournalLocked, since interleaved
// buffered appends from two writers would corrupt the file both depend on
// for recovery. The lock dies with its holder: a SIGKILLed writer releases
// it automatically, so a restart after a real crash needs no cleanup step.
#pragma once

#include <cstddef>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sqz::core {

/// Journal failure (unwritable dir, torn-tail truncation failure, failed
/// append). Typed so the sweep engine can classify it as a PointError with
/// phase "journal" instead of mistaking it for a simulation failure.
class SweepJournalError : public std::runtime_error {
 public:
  explicit SweepJournalError(const std::string& what)
      : std::runtime_error(what) {}
};

/// The journal directory's writer lock is held by another live writer.
/// Distinct from SweepJournalError so callers can tell a busy journal from
/// a broken one.
class SweepJournalLocked : public SweepJournalError {
 public:
  explicit SweepJournalLocked(const std::string& what)
      : SweepJournalError(what) {}
};

class SweepJournal {
 public:
  struct Recovery {
    std::size_t records = 0;        ///< Valid records replayed (all types).
    std::size_t skipped = 0;        ///< Unknown-type records skipped (valid
                                    ///< checksum, future/foreign magic).
    std::size_t dropped_bytes = 0;  ///< Torn/untrusted tail truncated away.
    bool torn = false;              ///< True when a tail was dropped.
  };

  /// Open (creating `dir` if needed) and recover: acquire the directory's
  /// exclusive writer lock, replay valid records into entries(), truncate
  /// any torn tail, and position for appends. Throws SweepJournalLocked when another live writer holds the
  /// lock, SweepJournalError when the directory or file cannot be opened.
  explicit SweepJournal(const std::string& dir);

  ~SweepJournal();  ///< Releases the writer lock.

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Completed points recovered at open (key -> metrics JSON). Later
  /// duplicate records win, matching append order.
  const std::unordered_map<std::string, std::string>& entries() const {
    return entries_;
  }

  const Recovery& recovery() const { return recovery_; }

  /// Append one completed point and flush. Thread-safe (the sweep engine
  /// journals from worker threads as points finish). Throws
  /// SweepJournalError when the write fails — a sweep that was promised
  /// crash safety must not silently lose it.
  void append(const std::string& key, const std::string& value);

  /// The journal file inside `dir`.
  static std::string journal_path(const std::string& dir);

  /// The writer-lock file inside `dir` (exclusive flock, held while open).
  static std::string lock_path(const std::string& dir);

 private:
  /// Constructor tail, run under the writer lock: replay, truncate any
  /// torn tail, open for append. Split out so a throw can release the lock
  /// (a half-constructed object never runs its destructor).
  void open_and_recover();

  std::string path_;
  int lock_fd_ = -1;  ///< Exclusive flock on lock_path(); held until ~.
  std::mutex mu_;
  std::ofstream out_;  ///< Append-positioned after recovery; guarded by mu_.
  std::unordered_map<std::string, std::string> entries_;
  Recovery recovery_;
};

}  // namespace sqz::core
