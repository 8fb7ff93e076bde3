#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace sqz::util {

namespace {

constexpr char kHex[] = "0123456789abcdef";

void append_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

// Writes json_number(value) into buf (at least 32 bytes), returns the end.
// The digit count of the shortest round-trip scientific form is a lower
// bound on the precision "%.*g" needs, since any shorter decimal that
// parsed back to `value` would itself be a shorter round-trip form. From
// there the precision steps up only while the correctly rounded "%.*g"
// rendering fails to parse back, which can happen at power-of-two
// boundaries; precision 17 always round-trips.
char* format_number(double value, char* buf, char* end) {
  if (!std::isfinite(value)) {
    constexpr std::string_view null = "null";
    return std::copy(null.begin(), null.end(), buf);
  }
  char* const sci_end =
      std::to_chars(buf, end, value, std::chars_format::scientific).ptr;
  int precision = 0;
  for (const char* p = buf; p != sci_end && *p != 'e'; ++p)
    precision += *p >= '0' && *p <= '9';
  for (;; ++precision) {
    char* const last =
        std::to_chars(buf, end, value, std::chars_format::general, precision)
            .ptr;
    double back = 0.0;
    std::from_chars(buf, last, back);
    if (back == value || precision >= 17) return last;
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string json_number(double value) {
  char buf[32];
  return std::string(buf, format_number(value, buf, buf + sizeof buf));
}

void JsonWriter::flush() {
  if (!os_ || own_.empty()) return;
  os_->write(own_.data(), static_cast<std::streamsize>(own_.size()));
  own_.clear();
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(frames_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::before_value(bool is_key) {
  if (top_level_written_ && frames_.empty())
    throw std::logic_error("JsonWriter: document already complete");
  if (!frames_.empty() && frames_.back().object && !is_key && !key_pending_)
    throw std::logic_error("JsonWriter: object member needs a key() first");
  if (key_pending_ && is_key)
    throw std::logic_error("JsonWriter: key() already pending");
  if (os_ && own_.size() >= kFlushBytes) flush();
  if (frames_.empty() || key_pending_) {
    // Top-level value, or the value following a key: no separator.
    if (!is_key) key_pending_ = false;
    return;
  }
  if (!frames_.back().object || is_key) {
    if (frames_.back().has_items) out_ += ',';
    newline_indent();
    frames_.back().has_items = true;
  }
}

void JsonWriter::after_value() {
  if (!frames_.empty()) return;
  top_level_written_ = true;
  flush();
}

void JsonWriter::begin_object() {
  before_value(false);
  out_ += '{';
  frames_.push_back({true, false});
}

void JsonWriter::begin_array() {
  before_value(false);
  out_ += '[';
  frames_.push_back({false, false});
}

void JsonWriter::close(bool object) {
  if (frames_.empty() || frames_.back().object != object ||
      (object && key_pending_))
    throw std::logic_error(object
                               ? "JsonWriter: end_object() without matching object"
                               : "JsonWriter: end_array() without matching array");
  const bool had_items = frames_.back().has_items;
  frames_.pop_back();
  if (had_items) newline_indent();
  out_ += object ? '}' : ']';
  after_value();
}

void JsonWriter::end_object() { close(true); }

void JsonWriter::end_array() { close(false); }

void JsonWriter::key(std::string_view name) {
  if (frames_.empty() || !frames_.back().object)
    throw std::logic_error("JsonWriter: key() outside an object");
  before_value(true);
  out_ += '"';
  append_escaped(out_, name);
  out_.append(indent_ > 0 ? "\": " : "\":");
  key_pending_ = true;
}

void JsonWriter::value(std::string_view v) {
  before_value(false);
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  after_value();
}

void JsonWriter::value(std::int64_t v) {
  before_value(false);
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  after_value();
}

void JsonWriter::value(double v) {
  before_value(false);
  char buf[32];
  out_.append(buf, format_number(v, buf, buf + sizeof buf));
  after_value();
}

void JsonWriter::value(bool v) {
  before_value(false);
  out_.append(v ? "true" : "false");
  after_value();
}

void JsonWriter::null_value() {
  before_value(false);
  out_.append("null");
  after_value();
}

std::string json_string(int indent,
                        const std::function<void(JsonWriter&)>& build,
                        std::string_view suffix) {
  // The scratch buffer is taken out for the duration of the call, so a
  // nested call (a build step that renders a document of its own) finds it
  // empty and grows a buffer of its own instead of clobbering this one. A
  // buffer grown past kKeepBytes (a very large sweep dump) is dropped, so a
  // thread holds at most that much between documents.
  constexpr std::size_t kKeepBytes = 1 << 20;
  thread_local std::string scratch;
  std::string buf = std::move(scratch);
  buf.clear();
  {
    JsonWriter w(buf, indent);
    build(w);
  }
  buf.append(suffix);
  std::string out(buf);  // a copy is sized to its contents
  if (buf.capacity() <= kKeepBytes) scratch = std::move(buf);
  return out;
}

}  // namespace sqz::util
