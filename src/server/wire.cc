#include "src/server/wire.h"

#include "src/common/coding.h"

namespace gadget {
namespace wire {
namespace {

// Per-field sanity bounds, tighter than the frame bound so a corrupt length
// prefix inside a structurally valid frame still fails fast.
constexpr uint32_t kMaxKeyBytes = 64u << 10;
constexpr uint32_t kMaxValueBytes = 8u << 20;
constexpr uint32_t kMaxBatchEntries = 1u << 20;

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what);
}

// Reads a varint32 length-prefixed string, bounds-checked against `max`.
const char* GetBounded(const char* p, const char* limit, uint32_t max, std::string_view* out,
                       const char* what, Status* status) {
  std::string_view s;
  const char* q = GetLengthPrefixed(p, limit, &s);
  if (q == nullptr) {
    *status = Truncated(what);
    return nullptr;
  }
  if (s.size() > max) {
    *status = Status::InvalidArgument(std::string(what) + " exceeds wire limit");
    return nullptr;
  }
  *out = s;
  return q;
}

void AppendHeaderAndPayload(std::string* out, MsgType type, uint32_t id,
                            std::string_view payload) {
  PutFixed32(out, static_cast<uint32_t>(payload.size()) + kFrameOverhead);
  out->push_back(static_cast<char>(type));
  PutFixed32(out, id);
  out->append(payload.data(), payload.size());
}

}  // namespace

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kGet) &&
         type <= static_cast<uint8_t>(MsgType::kPing);
}

bool IsResponseType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kOk) &&
         type <= static_cast<uint8_t>(MsgType::kPong);
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kGet:
      return "GET";
    case MsgType::kPut:
      return "PUT";
    case MsgType::kMerge:
      return "MERGE";
    case MsgType::kDelete:
      return "DELETE";
    case MsgType::kMultiGet:
      return "MULTI_GET";
    case MsgType::kWriteBatch:
      return "WRITE_BATCH";
    case MsgType::kStats:
      return "STATS";
    case MsgType::kPing:
      return "PING";
    case MsgType::kOk:
      return "OK";
    case MsgType::kValue:
      return "VALUE";
    case MsgType::kNotFound:
      return "NOT_FOUND";
    case MsgType::kMulti:
      return "MULTI";
    case MsgType::kError:
      return "ERROR";
    case MsgType::kStatsText:
      return "STATS_TEXT";
    case MsgType::kPong:
      return "PONG";
  }
  return "?";
}

FrameStatus ExtractFrame(std::string_view buf, FrameView* frame, size_t* consumed,
                         std::string* error) {
  if (buf.size() < 4) {
    return FrameStatus::kNeedMore;
  }
  const uint32_t len = DecodeFixed32(buf.data());
  if (len < kFrameOverhead) {
    *error = "runt frame (length " + std::to_string(len) + " < header)";
    return FrameStatus::kError;
  }
  if (len > kMaxFrameBytes) {
    *error = "oversized frame (" + std::to_string(len) + " bytes > " +
             std::to_string(kMaxFrameBytes) + " limit)";
    return FrameStatus::kError;
  }
  const uint8_t type = buf.size() >= 5 ? static_cast<uint8_t>(buf[4]) : 0;
  // Type sanity is checked as soon as the byte is visible, before waiting for
  // the rest of the frame: garbage input fails after 5 bytes instead of
  // stalling until a bogus length's worth of noise arrives.
  if (buf.size() >= 5 && !IsRequestType(type) && !IsResponseType(type)) {
    *error = "unknown message type 0x" + std::to_string(type);
    return FrameStatus::kError;
  }
  if (buf.size() < 4 + static_cast<size_t>(len)) {
    return FrameStatus::kNeedMore;
  }
  frame->type = static_cast<MsgType>(type);
  frame->id = DecodeFixed32(buf.data() + 5);
  frame->payload = buf.substr(9, len - kFrameOverhead);
  *consumed = 4 + static_cast<size_t>(len);
  return FrameStatus::kOk;
}

void AppendFrame(std::string* out, MsgType type, uint32_t id, std::string_view payload) {
  AppendHeaderAndPayload(out, type, id, payload);
}

// --- requests ---------------------------------------------------------------

void AppendGetRequest(std::string* out, uint32_t id, std::string_view key) {
  std::string payload;
  PutLengthPrefixed(&payload, key);
  AppendHeaderAndPayload(out, MsgType::kGet, id, payload);
}

void AppendPutRequest(std::string* out, uint32_t id, std::string_view key,
                      std::string_view value) {
  std::string payload;
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, value);
  AppendHeaderAndPayload(out, MsgType::kPut, id, payload);
}

void AppendMergeRequest(std::string* out, uint32_t id, std::string_view key,
                        std::string_view operand) {
  std::string payload;
  PutLengthPrefixed(&payload, key);
  PutLengthPrefixed(&payload, operand);
  AppendHeaderAndPayload(out, MsgType::kMerge, id, payload);
}

void AppendDeleteRequest(std::string* out, uint32_t id, std::string_view key) {
  std::string payload;
  PutLengthPrefixed(&payload, key);
  AppendHeaderAndPayload(out, MsgType::kDelete, id, payload);
}

void AppendMultiGetRequest(std::string* out, uint32_t id, const std::vector<std::string>& keys) {
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(keys.size()));
  for (const std::string& key : keys) {
    PutLengthPrefixed(&payload, key);
  }
  AppendHeaderAndPayload(out, MsgType::kMultiGet, id, payload);
}

void AppendWriteBatchRequest(std::string* out, uint32_t id, const WriteBatch& batch) {
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(batch.size()));
  for (size_t i = 0; i < batch.size(); ++i) {
    const WriteBatch::Entry& e = batch.entry(i);
    payload.push_back(static_cast<char>(e.op));
    PutLengthPrefixed(&payload, e.key);
    PutLengthPrefixed(&payload, e.value);
  }
  AppendHeaderAndPayload(out, MsgType::kWriteBatch, id, payload);
}

void AppendStatsRequest(std::string* out, uint32_t id) {
  AppendHeaderAndPayload(out, MsgType::kStats, id, {});
}

void AppendPingRequest(std::string* out, uint32_t id) {
  AppendHeaderAndPayload(out, MsgType::kPing, id, {});
}

Status ParseRequest(const FrameView& frame, Request* out) {
  if (!IsRequestType(static_cast<uint8_t>(frame.type))) {
    return Status::InvalidArgument(std::string("not a request frame: ") +
                                   MsgTypeName(frame.type));
  }
  out->type = frame.type;
  out->id = frame.id;
  out->key.clear();
  out->value.clear();
  out->keys.clear();
  out->batch.Clear();
  const char* p = frame.payload.data();
  const char* limit = p + frame.payload.size();
  Status status;
  std::string_view field;
  switch (frame.type) {
    case MsgType::kGet:
    case MsgType::kDelete:
      p = GetBounded(p, limit, kMaxKeyBytes, &field, "key", &status);
      if (p == nullptr) {
        return status;
      }
      out->key.assign(field);
      break;
    case MsgType::kPut:
    case MsgType::kMerge:
      p = GetBounded(p, limit, kMaxKeyBytes, &field, "key", &status);
      if (p == nullptr) {
        return status;
      }
      out->key.assign(field);
      p = GetBounded(p, limit, kMaxValueBytes, &field, "value", &status);
      if (p == nullptr) {
        return status;
      }
      out->value.assign(field);
      break;
    case MsgType::kMultiGet: {
      uint32_t n = 0;
      p = GetVarint32(p, limit, &n);
      if (p == nullptr || n > kMaxBatchEntries) {
        return p == nullptr ? Truncated("multi-get count")
                            : Status::InvalidArgument("multi-get count exceeds wire limit");
      }
      out->keys.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        p = GetBounded(p, limit, kMaxKeyBytes, &field, "multi-get key", &status);
        if (p == nullptr) {
          return status;
        }
        out->keys.emplace_back(field);
      }
      break;
    }
    case MsgType::kWriteBatch: {
      uint32_t n = 0;
      p = GetVarint32(p, limit, &n);
      if (p == nullptr || n > kMaxBatchEntries) {
        return p == nullptr ? Truncated("batch count")
                            : Status::InvalidArgument("batch count exceeds wire limit");
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (p >= limit) {
          return Truncated("batch op");
        }
        const uint8_t op = static_cast<uint8_t>(*p++);
        if (op > static_cast<uint8_t>(WriteBatch::Op::kDelete)) {
          return Status::InvalidArgument("unknown batch op " + std::to_string(op));
        }
        std::string_view key;
        std::string_view value;
        p = GetBounded(p, limit, kMaxKeyBytes, &key, "batch key", &status);
        if (p == nullptr) {
          return status;
        }
        p = GetBounded(p, limit, kMaxValueBytes, &value, "batch value", &status);
        if (p == nullptr) {
          return status;
        }
        switch (static_cast<WriteBatch::Op>(op)) {
          case WriteBatch::Op::kPut:
            out->batch.Put(key, value);
            break;
          case WriteBatch::Op::kMerge:
            out->batch.Merge(key, value);
            break;
          case WriteBatch::Op::kDelete:
            out->batch.Delete(key);
            break;
        }
      }
      break;
    }
    case MsgType::kStats:
    case MsgType::kPing:
      break;
    default:
      return Status::InvalidArgument("unreachable request type");
  }
  if (p != limit) {
    return Status::InvalidArgument(std::string("trailing garbage after ") +
                                   MsgTypeName(frame.type) + " payload");
  }
  return Status::Ok();
}

// --- responses --------------------------------------------------------------

void AppendOkResponse(std::string* out, uint32_t id) {
  AppendHeaderAndPayload(out, MsgType::kOk, id, {});
}

void AppendValueResponse(std::string* out, uint32_t id, std::string_view value) {
  std::string payload;
  PutLengthPrefixed(&payload, value);
  AppendHeaderAndPayload(out, MsgType::kValue, id, payload);
}

void AppendNotFoundResponse(std::string* out, uint32_t id) {
  AppendHeaderAndPayload(out, MsgType::kNotFound, id, {});
}

void AppendMultiResponse(std::string* out, uint32_t id, const std::vector<Status>& statuses,
                         const std::vector<std::string>& values) {
  std::string payload;
  PutVarint32(&payload, static_cast<uint32_t>(statuses.size()));
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) {
      payload.push_back(kMultiFound);
      PutLengthPrefixed(&payload, values[i]);
    } else if (statuses[i].IsNotFound()) {
      payload.push_back(kMultiNotFound);
      PutLengthPrefixed(&payload, std::string_view());
    } else {
      payload.push_back(kMultiError);
      PutLengthPrefixed(&payload, statuses[i].ToString());
    }
  }
  AppendHeaderAndPayload(out, MsgType::kMulti, id, payload);
}

void AppendErrorResponse(std::string* out, uint32_t id, std::string_view message) {
  std::string payload;
  PutLengthPrefixed(&payload, message);
  AppendHeaderAndPayload(out, MsgType::kError, id, payload);
}

void AppendStatsTextResponse(std::string* out, uint32_t id, std::string_view json) {
  std::string payload;
  PutLengthPrefixed(&payload, json);
  AppendHeaderAndPayload(out, MsgType::kStatsText, id, payload);
}

void AppendPongResponse(std::string* out, uint32_t id) {
  AppendHeaderAndPayload(out, MsgType::kPong, id, {});
}

Status ParseResponse(const FrameView& frame, Response* out) {
  if (!IsResponseType(static_cast<uint8_t>(frame.type))) {
    return Status::InvalidArgument(std::string("not a response frame: ") +
                                   MsgTypeName(frame.type));
  }
  out->type = frame.type;
  out->id = frame.id;
  out->value.clear();
  out->statuses.clear();
  out->values.clear();
  const char* p = frame.payload.data();
  const char* limit = p + frame.payload.size();
  Status status;
  std::string_view field;
  switch (frame.type) {
    case MsgType::kOk:
    case MsgType::kNotFound:
    case MsgType::kPong:
      break;
    case MsgType::kValue:
      p = GetBounded(p, limit, kMaxValueBytes, &field, "value", &status);
      if (p == nullptr) {
        return status;
      }
      out->value.assign(field);
      break;
    case MsgType::kError:
    case MsgType::kStatsText:
      // Error messages and stats JSON share the value field; the stats
      // document can exceed the per-value cap with many shards, so it is
      // bounded only by the frame itself.
      p = GetBounded(p, limit, kMaxFrameBytes, &field, "text", &status);
      if (p == nullptr) {
        return status;
      }
      out->value.assign(field);
      break;
    case MsgType::kMulti: {
      uint32_t n = 0;
      p = GetVarint32(p, limit, &n);
      if (p == nullptr || n > kMaxBatchEntries) {
        return p == nullptr ? Truncated("multi count")
                            : Status::InvalidArgument("multi count exceeds wire limit");
      }
      out->statuses.reserve(n);
      out->values.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (p >= limit) {
          return Truncated("multi status");
        }
        const uint8_t st = static_cast<uint8_t>(*p++);
        if (st > kMultiError) {
          return Status::InvalidArgument("unknown multi status " + std::to_string(st));
        }
        p = GetBounded(p, limit, kMaxValueBytes, &field, "multi value", &status);
        if (p == nullptr) {
          return status;
        }
        out->statuses.push_back(st);
        out->values.emplace_back(field);
      }
      break;
    }
    default:
      return Status::InvalidArgument("unreachable response type");
  }
  if (p != limit) {
    return Status::InvalidArgument(std::string("trailing garbage after ") +
                                   MsgTypeName(frame.type) + " payload");
  }
  return Status::Ok();
}

}  // namespace wire
}  // namespace gadget
