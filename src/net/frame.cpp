#include "net/frame.hpp"

#include <cstring>

namespace drw::net {
namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Bounds-checked little-endian reader over [p, p + n).
struct Reader {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  std::uint8_t u8() {
    if (left < 1) {
      ok = false;
      return 0;
    }
    const std::uint8_t v = *p;
    ++p;
    --left;
    return v;
  }
  std::uint32_t u32() {
    if (left < 4) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (left < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  bool done() const { return ok && left == 0; }
};

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(13 + f.klass.size() + 8);
  put_u32(out, f.version);
  put_u8(out, static_cast<std::uint8_t>(
                  f.klass.size() > 255 ? 255 : f.klass.size()));
  for (std::size_t i = 0; i < f.klass.size() && i < 255; ++i) {
    out.push_back(static_cast<std::uint8_t>(f.klass[i]));
  }
  put_u64(out, f.node_count);
  return out;
}

std::vector<std::uint8_t> encode_request(const RequestFrame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(33);
  put_u64(out, f.tag);
  put_u64(out, f.source);
  put_u64(out, f.length);
  put_u32(out, f.count);
  put_u32(out, f.deadline_ms);
  put_u8(out, f.record ? 1 : 0);
  return out;
}

std::vector<std::uint8_t> encode_response(const ResponseFrame& f) {
  std::vector<std::uint8_t> out;
  std::size_t path_nodes = 0;
  for (const auto& path : f.paths) path_nodes += path.size();
  out.reserve(26 + 4 * f.destinations.size() + 4 * f.paths.size() +
              4 * path_nodes);
  put_u64(out, f.tag);
  put_u64(out, f.admission_index);
  put_u8(out, f.status);
  put_u8(out, f.record ? 1 : 0);
  put_u32(out, static_cast<std::uint32_t>(f.destinations.size()));
  for (std::uint32_t d : f.destinations) put_u32(out, d);
  put_u32(out, static_cast<std::uint32_t>(f.paths.size()));
  for (const auto& path : f.paths) {
    put_u32(out, static_cast<std::uint32_t>(path.size()));
    for (std::uint32_t node : path) put_u32(out, node);
  }
  return out;
}

std::optional<HelloFrame> decode_hello(const std::uint8_t* p, std::size_t n) {
  Reader r{p, n};
  HelloFrame f;
  f.version = r.u32();
  const std::uint8_t len = r.u8();
  if (r.left < len) return std::nullopt;
  f.klass.assign(reinterpret_cast<const char*>(r.p), len);
  r.p += len;
  r.left -= len;
  f.node_count = r.u64();
  if (!r.done()) return std::nullopt;
  return f;
}

std::optional<RequestFrame> decode_request(const std::uint8_t* p,
                                           std::size_t n) {
  Reader r{p, n};
  RequestFrame f;
  f.tag = r.u64();
  f.source = r.u64();
  f.length = r.u64();
  f.count = r.u32();
  f.deadline_ms = r.u32();
  f.record = r.u8() != 0;
  if (!r.done()) return std::nullopt;
  return f;
}

std::optional<ResponseFrame> decode_response(const std::uint8_t* p,
                                             std::size_t n) {
  Reader r{p, n};
  ResponseFrame f;
  f.tag = r.u64();
  f.admission_index = r.u64();
  f.status = r.u8();
  f.record = r.u8() != 0;
  const std::uint32_t n_dest = r.u32();
  if (!r.ok || r.left < std::size_t{n_dest} * 4) return std::nullopt;
  f.destinations.resize(n_dest);
  for (std::uint32_t i = 0; i < n_dest; ++i) f.destinations[i] = r.u32();
  // Each path needs at least its 4-byte length word, so a count beyond
  // left/4 is a lie -- reject it BEFORE resizing, or a tiny forged frame
  // could make us allocate ~n_paths empty vectors up front.
  const std::uint32_t n_paths = r.u32();
  if (!r.ok || n_paths > r.left / 4) return std::nullopt;
  f.paths.resize(n_paths);
  for (std::uint32_t i = 0; i < n_paths; ++i) {
    const std::uint32_t len = r.u32();
    if (!r.ok || r.left < std::size_t{len} * 4) return std::nullopt;
    f.paths[i].resize(len);
    for (std::uint32_t j = 0; j < len; ++j) f.paths[i][j] = r.u32();
  }
  if (!r.done()) return std::nullopt;
  return f;
}

std::vector<std::uint8_t> frame_bytes(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u8(out, static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool parse_frame_header(const std::uint8_t* header, FrameType* type,
                        std::uint32_t* payload_len) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t(header[i]) << (8 * i);
  if (len > kMaxFramePayload || header[4] < 1 || header[4] > 3) return false;
  *type = static_cast<FrameType>(header[4]);
  *payload_len = len;
  return true;
}

bool write_frame(Socket& s, FrameType type,
                 const std::vector<std::uint8_t>& payload, int timeout_ms) {
  if (payload.size() > kMaxFramePayload) return false;
  const std::vector<std::uint8_t> frame = frame_bytes(type, payload);
  return send_all(s, frame.data(), frame.size(), timeout_ms);
}

bool read_frame(Socket& s, FrameType* type,
                std::vector<std::uint8_t>* payload, int timeout_ms) {
  std::uint8_t header[kFrameHeaderSize];
  std::uint32_t len = 0;
  if (!recv_all(s, header, sizeof(header), timeout_ms) ||
      !parse_frame_header(header, type, &len)) {
    return false;
  }
  payload->resize(len);
  return len == 0 || recv_all(s, payload->data(), len, timeout_ms);
}

}  // namespace drw::net
