// Seed-corpus generator: writes one well-formed input per encoder into
// fuzz/corpus/<target>/, built from the real encoders so the fuzzers start
// from structurally valid bytes instead of noise.
//
//   gen_corpus <corpus-root>
//
// Run once when an encoder changes shape; the outputs are checked in. Fuzz
// crashers get added to the same directories by hand (CI uploads them as
// artifacts) and become permanent regressions via the fallback driver.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/coding.h"
#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/server/wire.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/btree/page.h"
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
  // Three v1 records (groups of one), then one v2 record of two ops.
  if (!(*writer)->AppendGroup({{RecType::kValue, "key-a", "value-a"}}, /*sync=*/false).ok() ||
      !(*writer)->AppendGroup({{RecType::kMergeStack, "key-b", "+1"}}, /*sync=*/false).ok() ||
      !(*writer)->AppendGroup({{RecType::kTombstone, "key-a", ""}}, /*sync=*/false).ok() ||
      !(*writer)
           ->AppendGroup({{RecType::kValue, "bk1", "bv1"}, {RecType::kTombstone, "bk2", ""}},
                         /*sync=*/false)
           .ok() ||
      !(*writer)->Close().ok()) {
    return false;
  }
  if (!Emit(root, "wal", "mixed_records", FileBytes(path))) {
    return false;
  }

  // A log that was never closed, as a crash leaves it: records, then the
  // zero-filled rest of the reserved window, cut to 64 bytes to keep the
  // seed small. The second seed tears its last record: the bytes after its
  // first half read as the zero tail.
  const std::string live_path = tmp.path() + "/live.wal";
  auto live = WalWriter::Create(live_path);
  if (!live.ok() ||
      !(*live)->AppendGroup({{RecType::kValue, "key-a", "value-a"}}, /*sync=*/false).ok() ||
      !(*live)
           ->AppendGroup({{RecType::kMergeStack, "key-b", "+1"}, {RecType::kValue, "bk1", "bv1"}},
                         /*sync=*/false)
           .ok()) {
    return false;
  }
  const uint64_t intact = (*live)->size();
  if (!(*live)->AppendGroup({{RecType::kValue, "key-c", "value-c"}}, /*sync=*/false).ok()) {
    return false;
  }
  const uint64_t logged = (*live)->size();
  std::string zero_tail = FileBytes(live_path);
  if (!(*live)->Close().ok() || zero_tail.size() < logged + 64) {
    return false;
  }
  zero_tail.resize(logged + 64);
  std::string torn = zero_tail;
  std::fill(torn.begin() + static_cast<std::ptrdiff_t>(intact + (logged - intact) / 2), torn.end(),
            '\0');
  return Emit(root, "wal", "zero_tail", zero_tail) &&
         Emit(root, "wal", "torn_before_zero_tail", torn);
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

bool GenBTreePage(const std::string& root) {
  constexpr uint32_t kPage = 512;  // fuzz_btree_page.cc's page size
  std::string scratch;
  auto key_of = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i);
    return std::string(key);
  };
  auto fixed16 = [](uint16_t v) { return std::string(reinterpret_cast<const char*>(&v), 2); };
  auto fixed32 = [](uint32_t v) { return std::string(reinterpret_cast<const char*>(&v), 4); };
  auto new_page = [&](uint8_t type, uint32_t link) {
    std::string page(kPage, '\0');
    BTreePage(page.data(), kPage).Init(type, link);
    return page;
  };
  // Mode 0 = one page: mode byte, key-length byte, key, page.
  auto page_input = [](std::string_view key, const std::string& page) {
    std::string input(1, '\x00');
    input.push_back(static_cast<char>(key.size()));
    input.append(key);
    return input + page;
  };

  const std::string empty = new_page(kLeafPage, 0);

  std::string full = new_page(kLeafPage, 9);
  BTreePage full_view(full.data(), kPage);
  for (int i = 0;; ++i) {
    const std::string value = "value-" + std::to_string(i);
    if (!full_view.Insert(full_view.count(),
                          {key_of(i), fixed16(static_cast<uint16_t>(value.size())), value},
                          &scratch)) {
      break;
    }
  }

  std::string internal = new_page(kInternalPage, 2);
  BTreePage internal_view(internal.data(), kPage);
  for (int i = 0; i < 10; ++i) {
    if (!internal_view.Insert(i, {key_of(10 * i), fixed32(3 + i), {}}, &scratch)) {
      return false;
    }
  }

  // One inline value and one overflow reference (head page 5, 1,000 bytes).
  std::string overflow = new_page(kLeafPage, 0);
  BTreePage overflow_view(overflow.data(), kPage);
  if (!overflow_view.Insert(0, {"k001", fixed16(3), "abc"}, &scratch) ||
      !overflow_view.Insert(1, {"k002", fixed16(kOverflowTag) + fixed32(5) + fixed32(1000), {}},
                            &scratch)) {
    return false;
  }

  // Two slots naming one record: within bounds and accounted for (heap moved
  // down by one record), but out of order and overlapping.
  std::string overlap = new_page(kLeafPage, 0);
  BTreePage overlap_view(overlap.data(), kPage);
  if (!overlap_view.Insert(0, {"k001", fixed16(3), "abc"}, &scratch)) {
    return false;
  }
  const size_t record = overlap_view.record_size(0);
  overlap.replace(kPageHeaderSize + kSlotSize, kSlotSize, overlap, kPageHeaderSize, kSlotSize);
  overlap.replace(2, 2, fixed16(2));
  overlap.replace(8, 2, fixed16(static_cast<uint16_t>(kPage - 2 * record)));

  // Mode 1 = a whole btree.db: a two-level tree with one overflow value.
  ScopedTempDir tmp("gadget_corpus");
  {
    BTreeOptions opts;
    opts.page_size = kPage;
    auto store = BTreeStore::Open(tmp.path(), opts);
    if (!store.ok()) {
      return false;
    }
    for (int i = 0; i < 80; ++i) {
      if (!(*store)->Put(key_of(i), "value-" + std::to_string(i)).ok()) {
        return false;
      }
    }
    if (!(*store)->Put(key_of(40), std::string(600, 'o')).ok() || !(*store)->Close().ok()) {
      return false;
    }
  }
  const std::string file = FileBytes(tmp.path() + "/btree.db");
  if (file.size() < 2 * kPage) {
    return false;
  }
  auto file_input = [](std::string_view key, uint8_t value_units, const std::string& bytes) {
    std::string input(1, '\x01');
    input.push_back(static_cast<char>(key.size()));
    input.append(key);
    input.push_back(static_cast<char>(value_units));
    return input + bytes;
  };
  // The root's first child pointing back at the root.
  std::string cycle = file;
  const uint32_t root_id = DecodeFixed32(cycle.data() + 4);
  if (static_cast<size_t>(root_id + 1) * kPage > cycle.size()) {
    return false;
  }
  cycle.replace(static_cast<size_t>(root_id) * kPage + 4, 4, fixed32(root_id));

  // A one-leaf tree whose record for key "" lies inside the 16-byte value of
  // "k001", counted in the record area as if it were its own. The target's
  // Put of k001 with 16 bytes of 'v' fits in place, which would turn the
  // inner record's tag into 0x7676; its next Get of "" would read that many
  // bytes out of the page.
  std::string nested_leaf = new_page(kLeafPage, 0);
  BTreePage nested_view(nested_leaf.data(), kPage);
  if (!nested_view.Insert(0, {"k001", fixed16(16), std::string(16, 'a')}, &scratch)) {
    return false;
  }
  const auto outer = static_cast<uint16_t>(kPage - nested_view.record_size(0));
  const auto inner = static_cast<uint16_t>(outer + 4 + 2 + 4);
  nested_leaf.replace(inner, 5, fixed16(3) + "abc");
  // Slot 0 becomes "" (zero prefix, length 0) at `inner`; k001 moves to slot 1.
  nested_leaf.replace(kPageHeaderSize + kSlotSize, kSlotSize,
                      nested_leaf.substr(kPageHeaderSize, kSlotSize));
  nested_leaf.replace(kPageHeaderSize, kSlotSize,
                      std::string(8, '\0') + fixed16(inner) + fixed16(0));
  nested_leaf.replace(2, 2, fixed16(2));
  nested_leaf.replace(8, 2, fixed16(static_cast<uint16_t>(outer - 5)));
  // Meta page: magic, root, next page, free-list head, height, format, page size.
  std::string nested;
  for (uint32_t field : {0x42545245u, 1u, 2u, 0u, 1u, 2u, kPage}) {
    nested += fixed32(field);
  }
  nested.resize(kPage, '\0');
  nested += nested_leaf;

  // A tree whose free list holds a freed three-page overflow chain, with the
  // list's head linking to page 2^30, far past the end of the file. The
  // target's Put of a 320-byte value pops the head for its overflow page,
  // which must fail as corruption rather than make page 2^30 the new head.
  const std::string free_dir = tmp.path() + "/free";
  {
    BTreeOptions opts;
    opts.page_size = kPage;
    auto store = BTreeStore::Open(free_dir, opts);
    if (!store.ok()) {
      return false;
    }
    for (int i = 0; i < 8; ++i) {
      if (!(*store)->Put(key_of(i), "value-" + std::to_string(i)).ok()) {
        return false;
      }
    }
    if (!(*store)->Put(key_of(3), std::string(3 * (kPage - 8), 'o')).ok() ||
        !(*store)->Put(key_of(3), "small").ok() || !(*store)->Close().ok()) {
      return false;
    }
  }
  std::string free_list = FileBytes(free_dir + "/btree.db");
  const uint32_t free_head = DecodeFixed32(free_list.data() + 12);
  if (free_head == 0 || static_cast<size_t>(free_head + 1) * kPage > free_list.size()) {
    return false;
  }
  free_list.replace(static_cast<size_t>(free_head) * kPage, 4, fixed32(1u << 30));

  return Emit(root, "btree_page", "empty_leaf", page_input("k001", empty)) &&
         Emit(root, "btree_page", "full_leaf", page_input(key_of(3), full)) &&
         Emit(root, "btree_page", "internal", page_input("k055", internal)) &&
         Emit(root, "btree_page", "overflow_ref", page_input("k002", overflow)) &&
         Emit(root, "btree_page", "overlapping_slots", page_input("k001", overlap)) &&
         Emit(root, "btree_page", "tree", file_input(key_of(41), 40, file)) &&
         Emit(root, "btree_page", "child_cycle", file_input(key_of(7), 2, cycle)) &&
         Emit(root, "btree_page", "nested_record", file_input("k001", 2, nested)) &&
         Emit(root, "btree_page", "free_list_out_of_range", file_input(key_of(9), 40, free_list));
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
            gadget::GenManifest(root) && gadget::GenSSTable(root) && gadget::GenTrace(root) &&
            gadget::GenBTreePage(root);
  return ok ? 0 : 1;
}
