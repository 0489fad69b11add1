// Seed-corpus generator: writes one well-formed input per encoder into
// fuzz/corpus/<target>/, built from the real encoders so the fuzzers start
// from structurally valid bytes instead of noise.
//
//   gen_corpus <corpus-root>
//
// Run once when an encoder changes shape; the outputs are checked in. Fuzz
// crashers get added to the same directories by hand (CI uploads them as
// artifacts) and become permanent regressions via the fallback driver.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/coding.h"
#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/server/wire.h"
#include "src/stores/lsm/sstable.h"
#include "src/stores/lsm/version.h"
#include "src/stores/lsm/wal.h"
#include "src/streams/trace_io.h"

namespace gadget {
namespace {

bool Emit(const std::string& root, const std::string& target, const std::string& name,
          std::string_view bytes) {
  std::string dir = root + "/" + target;
  if (!CreateDirIfMissing(dir).ok()) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return false;
  }
  std::string path = dir + "/" + name;
  if (!WriteStringToFile(path, bytes, /*sync=*/false).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("%s (%zu bytes)\n", path.c_str(), bytes.size());
  return true;
}

std::string FileBytes(const std::string& path) {
  std::string bytes;
  if (!ReadFileToString(path, &bytes).ok()) {
    std::fprintf(stderr, "cannot read back %s\n", path.c_str());
  }
  return bytes;
}

bool GenWire(const std::string& root) {
  std::string pipelined;
  wire::AppendPutRequest(&pipelined, 1, "key-a", "value-a");
  wire::AppendGetRequest(&pipelined, 2, "key-a");
  wire::AppendMergeRequest(&pipelined, 3, "key-b", "+1");
  wire::AppendDeleteRequest(&pipelined, 4, "key-a");
  wire::AppendMultiGetRequest(&pipelined, 5, {"key-a", "key-b", "key-c"});
  WriteBatch batch;
  batch.Put("bk1", "bv1");
  batch.Merge("bk2", "+2");
  batch.Delete("bk3");
  wire::AppendWriteBatchRequest(&pipelined, 6, batch);
  wire::AppendStatsRequest(&pipelined, 7);
  wire::AppendPingRequest(&pipelined, 8);

  std::string responses;
  wire::AppendOkResponse(&responses, 1);
  wire::AppendValueResponse(&responses, 2, "value-a");
  wire::AppendNotFoundResponse(&responses, 3);
  wire::AppendMultiResponse(&responses, 4, {Status::Ok(), Status::NotFound()}, {"v", ""});
  wire::AppendErrorResponse(&responses, 5, "shard overloaded");
  wire::AppendStatsTextResponse(&responses, 6, "{\"shards\":[]}");
  wire::AppendPongResponse(&responses, 7);

  // A MULTI whose keys cover all three per-key statuses, the last one a
  // read error carrying its message.
  std::string multi_error;
  wire::AppendMultiResponse(&multi_error, 8,
                            {Status::Ok(), Status::NotFound(), Status::IoError("short read")},
                            {"v", "", ""});

  return Emit(root, "wire", "requests_pipelined", pipelined) &&
         Emit(root, "wire", "responses", responses) &&
         Emit(root, "wire", "response_multi_error", multi_error);
}

bool GenJson(const std::string& root) {
  JsonValue report = JsonValue::MakeObject();
  report.Set("schema", "gadget.report/1");
  report.Set("ops", uint64_t{123456});
  report.Set("ratio", 0.25);
  report.Set("ok", true);
  report.Set("note", std::string("esc \"quotes\" and \\ slashes \u00e9"));
  JsonValue arr = JsonValue::MakeArray();
  for (int i = 0; i < 3; ++i) {
    JsonValue inner = JsonValue::MakeObject();
    inner.Set("i", i);
    arr.Append(std::move(inner));
  }
  report.Set("timeline", std::move(arr));
  return Emit(root, "json", "report", report.Write(2)) &&
         Emit(root, "json", "nested", "[[[[{\"a\":[null,false,1e9,\"\\u0041\"]}]]]]");
}

bool GenWal(const std::string& root) {
  ScopedTempDir tmp("gadget_corpus");
  const std::string path = tmp.path() + "/seed.wal";
  auto writer = WalWriter::Create(path);
  if (!writer.ok()) {
    return false;
  }
  if (!(*writer)->Append(RecType::kValue, "key-a", "value-a", /*sync=*/false).ok() ||
      !(*writer)->Append(RecType::kMergeStack, "key-b", "+1", /*sync=*/false).ok() ||
      !(*writer)->Append(RecType::kTombstone, "key-a", "", /*sync=*/false).ok()) {
    return false;
  }
  WriteBatch batch;
  batch.Put("bk1", "bv1");
  batch.Delete("bk2");
  if (!(*writer)->AppendBatch(batch, /*sync=*/false).ok() || !(*writer)->Close().ok()) {
    return false;
  }
  return Emit(root, "wal", "mixed_records", FileBytes(path));
}

bool GenManifest(const std::string& root) {
  ScopedTempDir tmp("gadget_corpus");
  ManifestData data;
  data.next_file_number = 42;
  data.wal_numbers = {40, 41};
  data.files.push_back({/*level=*/0, /*number=*/7, /*size=*/4096, /*entries=*/100,
                        /*tombstones=*/3, /*created_ms=*/1234, "aaa", "zzz"});
  data.files.push_back({/*level=*/1, /*number=*/9, /*size=*/8192, /*entries=*/500,
                        /*tombstones=*/0, /*created_ms=*/5678, std::string("\x00\x01", 2),
                        std::string("\xff\xfe", 2)});
  if (!SaveManifest(tmp.path(), data).ok()) {
    return false;
  }
  return Emit(root, "manifest", "two_levels", FileBytes(tmp.path() + "/MANIFEST"));
}

bool GenSSTable(const std::string& root) {
  ScopedTempDir tmp("gadget_corpus");
  const std::string path = tmp.path() + "/seed.sst";
  SSTableBuilder builder(path, /*block_size=*/64, /*bloom_bits_per_key=*/10);
  for (int i = 0; i < 20; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%03d", i);
    RecType type = i % 7 == 3 ? RecType::kTombstone : RecType::kValue;
    if (!builder.Add(key, type, "value-" + std::to_string(i)).ok()) {
      return false;
    }
  }
  if (!builder.Finish().ok()) {
    return false;
  }
  // Mode byte 1 = whole-file path (fuzz_sstable.cc).
  std::string seeded = "\x01" + FileBytes(path);
  // Mode byte 0 = direct SearchBlock: key length 2, key "k1", then a tiny
  // hand-assembled block (varint klen | key | type | varint vlen | value).
  auto direct = [](char type, std::string_view value) {
    std::string bytes;
    bytes.push_back('\x00');
    bytes.push_back(2);  // fuzz key length selector
    bytes += "k1";
    bytes.push_back(2);  // klen
    bytes += "k1";
    bytes.push_back(type);
    bytes.push_back(static_cast<char>(value.size()));  // vlen
    bytes += value;
    return bytes;
  };
  // A merge stack of three operands, the middle one empty: the shape of the
  // stacks in older tables, which wrote one operand per merge.
  std::string stack;
  for (std::string_view op : {"a", "", "bc"}) {
    PutLengthPrefixed(&stack, op);
  }
  return Emit(root, "sstable", "small_table", seeded) &&
         Emit(root, "sstable", "search_block", direct(1, "v1")) &&  // RecType::kValue
         // A record type no writer emits: SearchBlock must call it corruption.
         Emit(root, "sstable", "search_block_unknown_type", direct(3, "v1")) &&
         Emit(root, "sstable", "search_block_merge_stack", direct(2, stack));
}

bool GenTrace(const std::string& root) {
  ScopedTempDir tmp("gadget_corpus");
  const std::string epath = tmp.path() + "/seed.events";
  auto ew = EventTraceWriter::Create(epath);
  if (!ew.ok()) {
    return false;
  }
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.stream_id = static_cast<uint8_t>(i & 1);
    e.event_time_ms = 1000 + static_cast<uint64_t>(i) * 10;
    e.key = static_cast<uint64_t>(i) * 7;
    e.value_size = 64;
    e.attr = 2;
    if (!(*ew)->Append(e).ok()) {
      return false;
    }
  }
  if (!(*ew)->Append(Event::Watermark(1100)).ok() || !(*ew)->Finish().ok()) {
    return false;
  }

  const std::string apath = tmp.path() + "/seed.access";
  auto aw = AccessTraceWriter::Create(apath);
  if (!aw.ok()) {
    return false;
  }
  for (int i = 0; i < 10; ++i) {
    StateAccess a;
    a.op = i % 3 == 0 ? OpType::kGet : OpType::kPut;
    a.key = {static_cast<uint64_t>(i), static_cast<uint64_t>(i) * 3};
    a.value_size = a.op == OpType::kGet ? 0 : 128;
    a.timestamp = 2000 + static_cast<uint64_t>(i);
    if (!(*aw)->Append(a).ok()) {
      return false;
    }
  }
  if (!(*aw)->Finish().ok()) {
    return false;
  }
  // Mode byte 1 = event trace, 0 = access trace (fuzz_trace.cc TakeBool).
  return Emit(root, "trace", "events", "\x01" + FileBytes(epath)) &&
         Emit(root, "trace", "access", std::string(1, '\x00') + FileBytes(apath));
}

}  // namespace
}  // namespace gadget

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  if (!gadget::CreateDirIfMissing(root).ok()) {
    std::fprintf(stderr, "cannot create %s\n", root.c_str());
    return 1;
  }
  bool ok = gadget::GenWire(root) && gadget::GenJson(root) && gadget::GenWal(root) &&
            gadget::GenManifest(root) && gadget::GenSSTable(root) && gadget::GenTrace(root);
  return ok ? 0 : 1;
}
