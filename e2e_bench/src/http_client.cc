// Minimal blocking HTTP/1.1 client for POST /query over loopback. The
// server answers one request per connection and closes it, so the client
// reads to EOF.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "harness.h"

namespace e2e {

namespace {

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += size_t(n);
  }
  return true;
}

}  // namespace

HttpReply PostQuery(uint16_t port, const std::string& body) {
  HttpReply reply;
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return reply;
  }
  std::string req = "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!WriteAll(fd, req)) {
    close(fd);
    return reply;
  }
  std::string raw;
  char buf[65536];
  while (true) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return reply;
    }
    if (n == 0) break;
    raw.append(buf, size_t(n));
  }
  close(fd);
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  const size_t sp = raw.find(' ');
  const size_t hdr_end = raw.find("\r\n\r\n");
  if (sp == std::string::npos || hdr_end == std::string::npos) return reply;
  reply.status = std::atoi(raw.c_str() + sp + 1);
  raw.erase(0, hdr_end + 4);
  reply.body = std::move(raw);
  return reply;
}

}  // namespace e2e
