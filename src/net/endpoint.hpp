// A dialable TCP address for the socket-mesh backend (src/net).
//
// Endpoints travel two ways: parsed from `--net-registry=<host:port>` on the
// harness, and packed into the registry's node map as IPv4 addr + port (the
// registry reads each node's address off the registration connection, so a
// node never has to know its own externally-visible name).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

namespace ci::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = let the kernel pick (listen side only)

  bool operator==(const Endpoint&) const = default;
};

inline std::string to_string(const Endpoint& e) {
  return e.host + ":" + std::to_string(e.port);
}

// Parses "host:port". The host part must be non-empty and the port a plain
// decimal in [0, 65535]; anything else returns false and leaves *out alone.
inline bool parse_endpoint(const std::string& s, Endpoint* out) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) return false;
  const std::string host = s.substr(0, colon);
  const std::string port_str = s.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (end == port_str.c_str() || *end != '\0' || port < 0 || port > 65535) return false;
  out->host = host;
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

}  // namespace ci::net
