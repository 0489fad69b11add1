#include "src/server/client.h"

namespace gadget {
namespace wire {

StatusOr<std::unique_ptr<Client>> Client::Connect(uint16_t port, int pool_size,
                                                  int connect_budget_ms) {
  if (pool_size < 1) {
    return Status::InvalidArgument("client pool_size must be >= 1");
  }
  std::unique_ptr<Client> client(new Client());
  client->pool_.reserve(static_cast<size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) {
    // Only the first connection burns the boot-race budget: once it is in,
    // the server is listening and the rest either connect or really fail.
    StatusOr<int> fd = (i == 0 && connect_budget_ms > 0)
                           ? net::TcpConnectRetry(port, connect_budget_ms)
                           : net::TcpConnect(port);
    if (!fd.ok()) {
      return fd.status();
    }
    PooledConn pc;
    pc.conn = std::make_unique<net::FramedConn>(*fd);
    client->pool_.push_back(std::move(pc));
  }
  return client;
}

Client::Lease Client::AcquireLease() {
  MutexLock lock(&mu_);
  for (;;) {
    for (size_t i = 0; i < pool_.size(); ++i) {
      const size_t idx = (next_ + i) % pool_.size();
      if (!pool_[idx].leased) {
        pool_[idx].leased = true;
        next_ = (idx + 1) % pool_.size();
        return Lease(this, idx);
      }
    }
    available_.Wait();
  }
}

Client::Lease::~Lease() {
  if (client_ == nullptr) {
    return;  // moved-from
  }
  MutexLock lock(&client_->mu_);
  client_->pool_[index_].leased = false;
  client_->available_.Signal();
}

net::FramedConn* Client::Lease::conn() { return client_->pool_[index_].conn.get(); }

uint32_t Client::Lease::NextId() {
  // The pool entry is exclusively leased: no lock needed for its id counter.
  uint32_t& next = client_->pool_[index_].next_id;
  if (next == 0) {
    next = 1;  // skip the reserved connection-fatal id on wrap
  }
  return next++;
}

Status Client::RoundTrip(Lease& lease, std::string_view frame, uint32_t id, Response* out) {
  GADGET_RETURN_IF_ERROR(lease.conn()->Send(frame));
  GADGET_RETURN_IF_ERROR(lease.conn()->RecvResponse(out));
  if (out->type == MsgType::kError && out->id == 0) {
    // Connection-fatal protocol error: the server is about to close this
    // connection, so the pool entry is dead for further use too.
    return Status::IoError("server closed connection: " + out->value);
  }
  if (out->id != id) {
    return Status::IoError("response id mismatch (sent " + std::to_string(id) + ", got " +
                           std::to_string(out->id) + ")");
  }
  if (out->type == MsgType::kError) {
    return Status::IoError("server error: " + out->value);
  }
  return Status::Ok();
}

Status Client::Put(std::string_view key, std::string_view value) {
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendPutRequest(&frame, id, key, value);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  return resp.type == MsgType::kOk
             ? Status::Ok()
             : Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
}

Status Client::Get(std::string_view key, std::string* value) {
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendGetRequest(&frame, id, key);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  if (resp.type == MsgType::kNotFound) {
    return Status::NotFound();
  }
  if (resp.type != MsgType::kValue) {
    return Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
  }
  *value = std::move(resp.value);
  return Status::Ok();
}

Status Client::Merge(std::string_view key, std::string_view operand) {
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendMergeRequest(&frame, id, key, operand);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  return resp.type == MsgType::kOk
             ? Status::Ok()
             : Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
}

Status Client::Delete(std::string_view key) {
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendDeleteRequest(&frame, id, key);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  return resp.type == MsgType::kOk
             ? Status::Ok()
             : Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
}

Status Client::MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status::NotFound());
  if (keys.empty()) {
    return Status::Ok();
  }
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendMultiGetRequest(&frame, id, keys);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  if (resp.type != MsgType::kMulti) {
    return Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
  }
  if (resp.statuses.size() != keys.size()) {
    return Status::IoError("multi response count mismatch");
  }
  Status first_error;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (resp.statuses[i] == kMultiFound) {
      (*statuses)[i] = Status::Ok();
      (*values)[i] = std::move(resp.values[i]);
    } else if (resp.statuses[i] == kMultiError) {
      (*statuses)[i] = Status::IoError("server error: " + resp.values[i]);
      if (first_error.ok()) {
        first_error = (*statuses)[i];
      }
    }
  }
  return first_error;
}

Status Client::Write(const WriteBatch& batch) {
  if (batch.empty()) {
    return Status::Ok();
  }
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendWriteBatchRequest(&frame, id, batch);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  return resp.type == MsgType::kOk
             ? Status::Ok()
             : Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
}

Status Client::Ping() {
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendPingRequest(&frame, id);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  return resp.type == MsgType::kPong
             ? Status::Ok()
             : Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
}

StatusOr<std::string> Client::StatsJson() {
  Lease lease = AcquireLease();
  const uint32_t id = lease.NextId();
  std::string frame;
  AppendStatsRequest(&frame, id);
  Response resp;
  GADGET_RETURN_IF_ERROR(RoundTrip(lease, frame, id, &resp));
  if (resp.type != MsgType::kStatsText) {
    return Status::IoError(std::string("unexpected response ") + MsgTypeName(resp.type));
  }
  return std::move(resp.value);
}

}  // namespace wire
}  // namespace gadget
