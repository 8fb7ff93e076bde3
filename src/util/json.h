// Dependency-free buffered JSON writer.
//
// Backs the machine-readable run reports, sweep dumps, serving cache keys
// and the Chrome trace exporter (core/report.h, core/dse.h, serve/api.h,
// core/trace.h): a push-style writer with a structural state machine, so
// emitted documents are well-formed by construction — misnested begin/end
// calls or a value without a key throw std::logic_error instead of
// producing broken output. Doubles print as printf "%.*g" in the C locale at
// the smallest precision that round-trips bit-exactly (std::to_chars, which
// the standard defines as that printf form, checked with std::from_chars).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sqz::util {

/// Escape one string for inclusion in a JSON document (no surrounding
/// quotes): ", \, and control characters; other bytes pass through (UTF-8).
std::string json_escape(std::string_view text);

/// Format a double as JSON: "%.*g" at the smallest precision whose output
/// parses back to the identical double; non-finite values render as null
/// (JSON has no NaN/Inf).
std::string json_number(double value);

/// Buffered writer. Typical use:
///
///   JsonWriter w(out);
///   w.begin_object();
///   w.member("name", "conv1");
///   w.key("counts"); w.begin_object(); ... w.end_object();
///   w.end_object();   // w.done() is now true
///
/// Output is pretty-printed with 2-space indentation (indent 0 = compact).
/// A string target receives the bytes as they are written. A stream target
/// receives them in large writes: whenever the buffer passes kFlushBytes,
/// and the rest when the top-level value completes. A document left
/// unfinished (say, by an exception) never reaches the stream past its
/// last full buffer.
class JsonWriter {
 public:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  explicit JsonWriter(std::ostream& os, int indent = 2)
      : os_(&os), out_(own_), indent_(indent) {}
  /// Appends to `out` (existing contents are kept).
  explicit JsonWriter(std::string& out, int indent = 2)
      : out_(out), indent_(indent) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member name; must be followed by exactly one value/container.
  void key(std::string_view name);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::size_t v) { value(static_cast<std::int64_t>(v)); }
  void value(double v);
  void value(bool v);
  void null_value();

  /// key() + value() in one call.
  template <typename T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  /// True once the single top-level value has been completely written.
  bool done() const noexcept { return top_level_written_ && frames_.empty(); }

 private:
  struct Frame {
    bool object;
    bool has_items;
  };

  void before_value(bool is_key);
  void after_value();
  void close(bool object);
  void newline_indent();
  void flush();

  std::ostream* os_ = nullptr;  ///< Null for a string target.
  std::string own_;             ///< The buffer of a stream target.
  std::string& out_;
  int indent_;
  std::vector<Frame> frames_;
  bool key_pending_ = false;
  bool top_level_written_ = false;
};

/// Render one document through `build` into a string of exactly its size
/// (no spare capacity), followed by `suffix`. The writer appends into a
/// per-thread scratch buffer that keeps its capacity between calls, so a
/// steady stream of documents costs one allocation each.
std::string json_string(int indent,
                        const std::function<void(JsonWriter&)>& build,
                        std::string_view suffix = {});

}  // namespace sqz::util
