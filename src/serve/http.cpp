#include "serve/http.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace sqz::serve {

namespace {

bool iequals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& [k, v] : headers)
    if (iequals(k, name)) return &v;
  return nullptr;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

// Parse the header block starting after the start line. Returns NeedMore
// until the blank line arrives, then leaves `pos` at the first body byte.
ParseStatus parse_headers(
    const std::string& buffer, std::size_t& pos,
    std::vector<std::pair<std::string, std::string>>& headers,
    std::string* error, const ParseLimits& limits) {
  const std::size_t block_start = pos;
  for (;;) {
    // The cap covers the whole block, terminated lines included, so a slow
    // drip of small headers cannot grow the buffer unboundedly either.
    const std::size_t eol = buffer.find("\r\n", pos);
    const std::size_t block_end = eol == std::string::npos ? buffer.size() : eol;
    if (block_end - block_start > limits.max_header_bytes) {
      if (error) *error = "header block too large";
      return ParseStatus::TooLarge;
    }
    if (eol == std::string::npos) return ParseStatus::NeedMore;
    if (eol == pos) {  // blank line: end of headers
      pos = eol + 2;
      return ParseStatus::Ok;
    }
    const std::string line = buffer.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      if (error) *error = "malformed header line: " + line;
      return ParseStatus::Error;
    }
    const std::string name = trim(line.substr(0, colon));
    // A name with embedded whitespace or control bytes is a smuggling
    // attempt (request splitting), not a sloppy client. Reject it.
    for (const char c : name) {
      if (c == ' ' || c == '\t' ||
          static_cast<unsigned char>(c) < 0x21 ||
          static_cast<unsigned char>(c) == 0x7f) {
        if (error) *error = "malformed header name: " + name;
        return ParseStatus::Error;
      }
    }
    headers.emplace_back(name, trim(line.substr(colon + 1)));
    pos = eol + 2;
  }
}

// Content-Length framing shared by request and response parsing. Returns Ok
// once `header_end + length` bytes are buffered.
ParseStatus parse_body(
    const std::string& buffer, std::size_t body_start,
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string& body, std::size_t& consumed, std::string* error,
    const ParseLimits& limits) {
  std::size_t length = 0;
  if (const std::string* cl = find_header(headers, "Content-Length")) {
    // Strictly digits: no sign, no whitespace, no second opinion a proxy
    // might frame differently (CL smuggling).
    if (cl->empty() ||
        cl->find_first_not_of("0123456789") != std::string::npos) {
      if (error) *error = "bad Content-Length: " + *cl;
      return ParseStatus::Error;
    }
    errno = 0;
    const unsigned long long v = std::strtoull(cl->c_str(), nullptr, 10);
    if (errno == ERANGE || v > limits.max_body_bytes) {
      if (error)
        *error = "body of " + *cl + " bytes exceeds the " +
                 std::to_string(limits.max_body_bytes) + "-byte limit";
      return ParseStatus::TooLarge;
    }
    length = static_cast<std::size_t>(v);
  }
  if (find_header(headers, "Transfer-Encoding")) {
    if (error) *error = "Transfer-Encoding not supported";
    return ParseStatus::Error;
  }
  if (buffer.size() - body_start < length) return ParseStatus::NeedMore;
  body = buffer.substr(body_start, length);
  consumed = body_start + length;
  return ParseStatus::Ok;
}

const char* reason_for(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

void append_headers(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::size_t body_size, bool force_content_length) {
  bool have_length = false;
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
    have_length |= iequals(k, "Content-Length");
  }
  if (!have_length && (body_size > 0 || force_content_length)) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  return find_header(headers, name);
}

bool HttpRequest::wants_close() const {
  if (const std::string* c = header("Connection")) {
    if (iequals(*c, "close")) return true;
    if (iequals(*c, "keep-alive")) return false;
  }
  return version == "HTTP/1.0";
}

std::string HttpRequest::serialize() const {
  std::string out = method + " " + target + " " + version + "\r\n";
  append_headers(out, headers, body.size(), method == "POST");
  out += body;
  return out;
}

const std::string* HttpResponse::header(const std::string& name) const {
  return find_header(headers, name);
}

std::string HttpResponse::head() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  append_headers(out, headers, body.size(), /*force_content_length=*/true);
  return out;
}

std::string HttpResponse::serialize() const {
  std::string out = head();
  out.reserve(out.size() + body.size());  // one allocation for the body
  out += body;
  return out;
}

HttpResponse make_response(int status, const std::string& content_type,
                           std::string body) {
  HttpResponse r;
  r.status = status;
  r.reason = reason_for(status);
  r.headers.emplace_back("Content-Type", content_type);
  r.body = std::move(body);
  return r;
}

ParseStatus parse_http_request(const std::string& buffer, HttpRequest& out,
                               std::size_t& consumed, std::string* error,
                               const ParseLimits& limits) {
  const std::size_t eol = buffer.find("\r\n");
  if (eol == std::string::npos) {
    if (buffer.size() > limits.max_header_bytes) {
      if (error) *error = "request line too long";
      return ParseStatus::TooLarge;
    }
    return ParseStatus::NeedMore;
  }
  const std::string line = buffer.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || line.find(' ', sp2 + 1) != std::string::npos) {
    if (error) *error = "malformed request line: " + line;
    return ParseStatus::Error;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.version = line.substr(sp2 + 1);
  if (req.version.rfind("HTTP/1.", 0) != 0) {
    if (error) *error = "unsupported protocol: " + req.version;
    return ParseStatus::Error;
  }
  // A bare CR anywhere in the start line is a response-splitting probe.
  if (line.find('\r') != std::string::npos) {
    if (error) *error = "stray CR in request line";
    return ParseStatus::Error;
  }
  std::size_t pos = eol + 2;
  const ParseStatus hs = parse_headers(buffer, pos, req.headers, error, limits);
  if (hs != ParseStatus::Ok) return hs;
  const ParseStatus bs =
      parse_body(buffer, pos, req.headers, req.body, consumed, error, limits);
  if (bs != ParseStatus::Ok) return bs;
  out = std::move(req);
  return ParseStatus::Ok;
}

ParseStatus parse_http_response(const std::string& buffer, HttpResponse& out,
                                std::size_t& consumed, std::string* error,
                                const ParseLimits& limits) {
  const std::size_t eol = buffer.find("\r\n");
  if (eol == std::string::npos) {
    if (buffer.size() > limits.max_header_bytes) {
      if (error) *error = "status line too long";
      return ParseStatus::TooLarge;
    }
    return ParseStatus::NeedMore;
  }
  const std::string line = buffer.substr(0, eol);
  if (line.rfind("HTTP/1.", 0) != 0) {
    if (error) *error = "malformed status line: " + line;
    return ParseStatus::Error;
  }
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || line.size() < sp1 + 4) {
    if (error) *error = "malformed status line: " + line;
    return ParseStatus::Error;
  }
  HttpResponse resp;
  resp.status = 0;
  for (std::size_t i = sp1 + 1; i < sp1 + 4; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
      if (error) *error = "malformed status code: " + line;
      return ParseStatus::Error;
    }
    resp.status = resp.status * 10 + (line[i] - '0');
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  resp.reason = sp2 == std::string::npos ? "" : line.substr(sp2 + 1);
  std::size_t pos = eol + 2;
  const ParseStatus hs = parse_headers(buffer, pos, resp.headers, error, limits);
  if (hs != ParseStatus::Ok) return hs;
  const ParseStatus bs =
      parse_body(buffer, pos, resp.headers, resp.body, consumed, error, limits);
  if (bs != ParseStatus::Ok) return bs;
  out = std::move(resp);
  return ParseStatus::Ok;
}

}  // namespace sqz::serve
