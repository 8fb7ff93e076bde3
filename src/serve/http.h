// Minimal HTTP/1.1 message layer for the simulation service.
//
// Same spirit as util/json: dependency-free, strict, and unit-testable
// without sockets. Messages are parsed incrementally from a byte buffer
// (parse_http_request / parse_http_response return NeedMore until a full
// message is buffered), so the connection loop in serve/server.cpp and the
// blocking client share one grammar. Only what the service needs is
// implemented: Content-Length framing (no chunked transfer), no multi-line
// headers, one message at a time.
//
// The client side — http_fetch, FetchError, and the retry/backoff wrapper —
// lives in serve/httpclient.h (re-included below for compatibility, so code
// written against the original one-header layout keeps compiling).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace sqz::serve {

struct HttpRequest {
  std::string method;
  std::string target;   ///< Origin-form path, e.g. "/v1/simulate".
  std::string version = "HTTP/1.1";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* header(const std::string& name) const;

  /// True when the peer asked for the connection to close after this
  /// exchange ("Connection: close", or an HTTP/1.0 request).
  bool wants_close() const;

  /// Wire form (adds Content-Length when a body is present).
  std::string serialize() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* header(const std::string& name) const;

  /// Wire form; always emits Content-Length so the peer can frame the body.
  std::string serialize() const;

  /// The wire form up to and including the blank line before the body.
  std::string head() const;
};

/// Build a response with Content-Type set and the standard reason phrase
/// for `status` (200, 400, 404, 405, 408, 413, 500, 503; anything else
/// gets "Error").
HttpResponse make_response(int status, const std::string& content_type,
                           std::string body);

enum class ParseStatus {
  Ok,
  NeedMore,
  Error,     ///< Protocol violation; the connection cannot recover.
  TooLarge,  ///< Well-formed but over a ParseLimits cap (maps to 413).
};

/// Size caps enforced while parsing. The server passes its
/// `--max-body-bytes` here; exceeding a cap yields TooLarge, which the
/// server answers with 413 instead of a generic 400.
struct ParseLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 64 * 1024 * 1024;
};

/// Parse one request from the front of `buffer`. On Ok, `out` is filled and
/// `consumed` is the byte count to strip before parsing the next message.
/// On Error/TooLarge, `error` (if non-null) describes the violation.
ParseStatus parse_http_request(const std::string& buffer, HttpRequest& out,
                               std::size_t& consumed, std::string* error,
                               const ParseLimits& limits = {});

/// Same, for one response.
ParseStatus parse_http_response(const std::string& buffer, HttpResponse& out,
                                std::size_t& consumed, std::string* error,
                                const ParseLimits& limits = {});

}  // namespace sqz::serve

// Compatibility: the client half of the original single-header layout.
// Placed after the message types so either include order works.
#include "serve/httpclient.h"
