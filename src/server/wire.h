// The store service's binary wire protocol (DESIGN.md §6).
//
// Every message is one length-prefixed frame:
//
//   [u32 len LE][u8 type][u32 id LE][payload: len-5 bytes]
//
// `len` counts everything after itself (type + id + payload), so a frame
// occupies 4 + len bytes on the wire and a decoder can resynchronize only by
// closing the connection — there is no resync marker, which is why a
// malformed frame is a connection-fatal error, never a skip. `id` is a
// client-assigned correlation tag: requests may be pipelined, and clients
// match responses to requests by id. (The server answers one connection's
// frames in the order it decoded them, but the id is the contract.)
//
// Request payloads map 1:1 onto the KVStore API so a pipelined burst can ride
// the batched Write/MultiGet path unchanged:
//
//   GET         [lp key]                                -> VALUE | NOT_FOUND
//   PUT         [lp key][lp value]                      -> OK
//   MERGE       [lp key][lp operand]                    -> OK
//   DELETE      [lp key]                                -> OK
//   MULTI_GET   [varint n]{[lp key]}*n                  -> MULTI
//   WRITE_BATCH [varint n]{[u8 op][lp key][lp value]}*n -> OK
//   STATS       (empty)                                 -> STATS_TEXT (JSON)
//   PING        (empty)                                 -> PONG
//
// (`lp` = varint32 length prefix + bytes, src/common/coding.h.) MULTI's
// payload is [varint n]{[u8 status][lp value]}*n with status 0 = found,
// 1 = not-found (value empty) and 2 = that key's read failed (value carries
// the error message). ERROR carries a human-readable message and is a
// per-request failure unless id == 0, which the server uses for
// connection-fatal protocol errors just before closing.
//
// All framing limits are validated on decode: a frame longer than
// kMaxFrameBytes, a runt frame, an unknown type byte, or a payload that does
// not parse exactly to its end is rejected with a clean error — torn input
// (a prefix of a valid frame) is reported as "need more bytes", never as an
// error, so a streaming decoder can accumulate.
#ifndef GADGET_SERVER_WIRE_H_
#define GADGET_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace wire {

// One frame must hold the largest WRITE_BATCH burst a client can send plus
// slack; anything bigger is a protocol violation, not a big request.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;
// Frame header past the length word: 1 type byte + 4 id bytes.
inline constexpr uint32_t kFrameOverhead = 5;

enum class MsgType : uint8_t {
  // Requests.
  kGet = 0x01,
  kPut = 0x02,
  kMerge = 0x03,
  kDelete = 0x04,
  kMultiGet = 0x05,
  kWriteBatch = 0x06,
  kStats = 0x07,
  kPing = 0x08,
  // Responses (high bit set).
  kOk = 0x81,
  kValue = 0x82,
  kNotFound = 0x83,
  kMulti = 0x84,
  kError = 0x85,
  kStatsText = 0x86,
  kPong = 0x87,
};

bool IsRequestType(uint8_t type);
bool IsResponseType(uint8_t type);
const char* MsgTypeName(MsgType t);

// A decoded frame header whose payload still points into the receive buffer;
// valid only until the buffer is next mutated, so decode immediately.
struct FrameView {
  MsgType type = MsgType::kPing;
  uint32_t id = 0;
  std::string_view payload;
};

enum class FrameStatus {
  kOk,        // *frame holds the next frame; *consumed bytes were used
  kNeedMore,  // `buf` ends mid-frame (torn input) — read more and retry
  kError,     // malformed framing; *error says why. Close the connection.
};

// Extracts the next frame from `buf`. On kOk, `*consumed` is the number of
// bytes the frame occupied (advance the buffer by that much).
FrameStatus ExtractFrame(std::string_view buf, FrameView* frame, size_t* consumed,
                         std::string* error);

// Appends one complete frame to `*out`.
void AppendFrame(std::string* out, MsgType type, uint32_t id, std::string_view payload);

// --- requests ---------------------------------------------------------------

// A fully decoded (owning) request, ready to execute against a shard.
struct Request {
  MsgType type = MsgType::kPing;
  uint32_t id = 0;
  std::string key;                 // get / put / merge / delete
  std::string value;               // put / merge operand
  std::vector<std::string> keys;   // multi_get
  WriteBatch batch;                // write_batch
};

void AppendGetRequest(std::string* out, uint32_t id, std::string_view key);
void AppendPutRequest(std::string* out, uint32_t id, std::string_view key,
                      std::string_view value);
void AppendMergeRequest(std::string* out, uint32_t id, std::string_view key,
                        std::string_view operand);
void AppendDeleteRequest(std::string* out, uint32_t id, std::string_view key);
void AppendMultiGetRequest(std::string* out, uint32_t id, const std::vector<std::string>& keys);
void AppendWriteBatchRequest(std::string* out, uint32_t id, const WriteBatch& batch);
void AppendStatsRequest(std::string* out, uint32_t id);
void AppendPingRequest(std::string* out, uint32_t id);

// Decodes a request frame's payload. InvalidArgument on a response-type
// frame, trailing garbage, or a truncated field.
Status ParseRequest(const FrameView& frame, Request* out);

// --- responses --------------------------------------------------------------

// Per-key status bytes of a MULTI response.
inline constexpr uint8_t kMultiFound = 0;
inline constexpr uint8_t kMultiNotFound = 1;
inline constexpr uint8_t kMultiError = 2;  // the value field holds the message

struct Response {
  MsgType type = MsgType::kOk;
  uint32_t id = 0;
  std::string value;                  // kValue payload / kError message /
                                      // kStatsText JSON
  std::vector<uint8_t> statuses;      // kMulti: kMultiFound / NotFound / Error
  std::vector<std::string> values;    // kMulti: per-key values ("" when miss,
                                      // the message on error)
};

void AppendOkResponse(std::string* out, uint32_t id);
void AppendValueResponse(std::string* out, uint32_t id, std::string_view value);
void AppendNotFoundResponse(std::string* out, uint32_t id);
void AppendMultiResponse(std::string* out, uint32_t id, const std::vector<Status>& statuses,
                         const std::vector<std::string>& values);
void AppendErrorResponse(std::string* out, uint32_t id, std::string_view message);
void AppendStatsTextResponse(std::string* out, uint32_t id, std::string_view json);
void AppendPongResponse(std::string* out, uint32_t id);

// Decodes a response frame's payload (the client side of ParseRequest).
Status ParseResponse(const FrameView& frame, Response* out);

}  // namespace wire
}  // namespace gadget

#endif  // GADGET_SERVER_WIRE_H_
