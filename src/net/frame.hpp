// drw::net framing -- the length-prefixed wire protocol of `drw serve
// --listen` / `drw request`.
//
// Every frame is:
//
//   u32 payload_len (little-endian) | u8 type | payload[payload_len]
//
// with payload_len capped at kMaxFramePayload so a hostile or corrupt
// length prefix cannot drive an allocation. All integers are
// little-endian, fixed width; node ids travel in the USER id space (the
// server translates to/from its internal relabeled space).
//
// Frame types:
//
//   HELLO (1), both directions. Client -> server first:
//       u32 version | u8 class_len | class bytes
//     The class names the client's admission class ("light", "flood",
//     ...) -- it selects the deficit-round-robin quantum its requests
//     drain under. Server replies:
//       u32 version | u64 node_count
//
//   REQUEST (2), client -> server:
//       u64 tag | u64 source | u64 length | u32 count | u32 deadline_ms
//       | u8 record
//     `tag` is an opaque client correlation id echoed in the response;
//     deadline_ms (0 = none) is relative to server-side arrival.
//
//   RESPONSE (3), server -> client:
//       u64 tag | u64 admission_index | u8 status | u8 record
//       | u32 n_destinations | n x u32 destination
//       | u32 n_paths | per path: u32 len | len x u32 node
//     admission_index is the server's global admitted-order position
//     (~0 = rejected before admission: queue full, deadline, invalid
//     source); it keys byte-for-byte comparison against an in-process
//     replay of the admission log. `status` is a service::RequestStatus.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace drw::net {

inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;
inline constexpr std::uint64_t kNotAdmitted = ~std::uint64_t{0};
inline constexpr std::size_t kFrameHeaderSize = 5;  ///< u32 len | u8 type

enum class FrameType : std::uint8_t {
  kHello = 1,
  kRequest = 2,
  kResponse = 3,
};

struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  std::string klass;        ///< client -> server: admission class name
  std::uint64_t node_count = 0;  ///< server -> client: served graph size
};

struct RequestFrame {
  std::uint64_t tag = 0;
  std::uint64_t source = 0;  ///< user id space
  std::uint64_t length = 0;
  std::uint32_t count = 1;
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
  bool record = false;
};

struct ResponseFrame {
  std::uint64_t tag = 0;
  std::uint64_t admission_index = kNotAdmitted;
  std::uint8_t status = 0;  ///< service::RequestStatus
  bool record = false;
  std::vector<std::uint32_t> destinations;            ///< user id space
  std::vector<std::vector<std::uint32_t>> paths;      ///< user id space
};

std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
std::vector<std::uint8_t> encode_request(const RequestFrame& f);
std::vector<std::uint8_t> encode_response(const ResponseFrame& f);

/// Decoders return nullopt on any structural violation (truncated payload,
/// trailing bytes, count overflows) -- a malformed frame never becomes a
/// partially-filled struct.
std::optional<HelloFrame> decode_hello(const std::uint8_t* p, std::size_t n);
std::optional<RequestFrame> decode_request(const std::uint8_t* p,
                                           std::size_t n);
std::optional<ResponseFrame> decode_response(const std::uint8_t* p,
                                             std::size_t n);

/// One whole frame on the wire: header + payload.
std::vector<std::uint8_t> frame_bytes(FrameType type,
                                      const std::vector<std::uint8_t>& payload);

/// Parses a frame header; false on a length prefix above kMaxFramePayload
/// or an unknown type byte (every frame reader applies these checks).
bool parse_frame_header(const std::uint8_t* header, FrameType* type,
                        std::uint32_t* payload_len);

/// Writes one frame with send_all semantics.
bool write_frame(Socket& s, FrameType type,
                 const std::vector<std::uint8_t>& payload, int timeout_ms);

/// Reads one frame. Returns false on EOF, timeout, or a header that
/// parse_frame_header rejects; *type / *payload are only valid on true.
bool read_frame(Socket& s, FrameType* type,
                std::vector<std::uint8_t>* payload, int timeout_ms);

}  // namespace drw::net
