// Loopback HTTP client shared by the suites that drive obs::AdminServer
// over a real socket (test_admin_server.cc, test_telemetry_contract.cc),
// and the JSON well-formedness check those and test_persist.cc apply to
// the /healthz body.  The validator is a tiny recursive-descent
// walk (no parser dependency): well-formedness is the contract, not schema.

#ifndef BITRUSS_TESTS_HTTP_TEST_UTIL_H_
#define BITRUSS_TESTS_HTTP_TEST_UTIL_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace bitruss::http_test {

struct HttpReply {
  bool ok = false;  // connected, sent, and got a status line back
  int status = 0;
  std::string headers;  // raw header block (status line included)
  std::string body;
};

// Connects to 127.0.0.1:`port`, sends exactly `payload`, then reads the
// server's answer to EOF (the server closes).  A payload that is not a
// complete request exercises the server's abuse paths (431/408).
inline HttpReply SendRawAndRead(int port, const std::string& payload) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return reply;
  }
  if (!payload.empty() &&
      ::send(fd, payload.data(), payload.size(), 0) !=
          static_cast<ssize_t>(payload.size())) {
    ::close(fd);
    return reply;
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return reply;
  reply.headers = response.substr(0, header_end);
  reply.body = response.substr(header_end + 4);
  if (std::sscanf(response.c_str(), "HTTP/1.0 %d", &reply.status) != 1) {
    return reply;
  }
  reply.ok = true;
  return reply;
}

// Minimal HTTP/1.0 client: one complete request, read to EOF.
inline HttpReply Fetch(int port, const std::string& request_line) {
  return SendRawAndRead(port,
                        request_line + "\r\nHost: 127.0.0.1\r\n\r\n");
}

inline HttpReply Get(int port, const std::string& path) {
  return Fetch(port, "GET " + path + " HTTP/1.0");
}

// ---------------------------------------------------------------------------
// Tiny JSON well-formedness validator.
// ---------------------------------------------------------------------------

struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos]))) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

inline bool ValidValue(JsonCursor* cursor);

inline bool ValidString(JsonCursor* cursor) {
  if (!cursor->Eat('"')) return false;
  while (cursor->pos < cursor->text.size()) {
    const char c = cursor->text[cursor->pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cursor->pos >= cursor->text.size()) return false;
      ++cursor->pos;  // escaped char (u-escapes validate loosely)
    }
  }
  return false;
}

inline bool ValidNumber(JsonCursor* cursor) {
  const std::size_t start = cursor->pos;
  const std::string& t = cursor->text;
  auto at = [&](char c) {
    return cursor->pos < t.size() && t[cursor->pos] == c;
  };
  if (at('-')) ++cursor->pos;
  while (cursor->pos < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[cursor->pos])) ||
          t[cursor->pos] == '.' || t[cursor->pos] == 'e' ||
          t[cursor->pos] == 'E' || t[cursor->pos] == '+' ||
          t[cursor->pos] == '-')) {
    ++cursor->pos;
  }
  return cursor->pos > start;
}

inline bool ValidValue(JsonCursor* cursor) {
  cursor->SkipSpace();
  if (cursor->pos >= cursor->text.size()) return false;
  const char c = cursor->text[cursor->pos];
  if (c == '{') {
    ++cursor->pos;
    if (cursor->Eat('}')) return true;
    do {
      if (!ValidString(cursor)) return false;
      if (!cursor->Eat(':')) return false;
      if (!ValidValue(cursor)) return false;
    } while (cursor->Eat(','));
    return cursor->Eat('}');
  }
  if (c == '[') {
    ++cursor->pos;
    if (cursor->Eat(']')) return true;
    do {
      if (!ValidValue(cursor)) return false;
    } while (cursor->Eat(','));
    return cursor->Eat(']');
  }
  if (c == '"') return ValidString(cursor);
  for (const char* literal : {"true", "false", "null"}) {
    const std::size_t len = std::strlen(literal);
    if (cursor->text.compare(cursor->pos, len, literal) == 0) {
      cursor->pos += len;
      return true;
    }
  }
  return ValidNumber(cursor);
}

inline bool IsValidJson(const std::string& text) {
  JsonCursor cursor{text};
  if (!ValidValue(&cursor)) return false;
  cursor.SkipSpace();
  return cursor.pos == text.size();
}

}  // namespace bitruss::http_test

#endif  // BITRUSS_TESTS_HTTP_TEST_UTIL_H_
