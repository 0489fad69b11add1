// Fuzz target: B+tree pages (src/stores/btree/page.h), the store's only
// decoder of page-file bytes.
//
// Input: a mode byte, a key-length byte (mod 24) and the key, then
//   mode 0: one page. CheckBTreePage runs on it; a page that passes is
//     searched in place for the key, then edited (the key erased from a leaf
//     that has it, inserted where it is missing) and compacted, and must
//     still pass the check after each edit.
//   any other mode: a value-length byte (times 8, past the 128-byte inline
//     limit of 512-byte pages), then a btree.db of 512-byte pages (meta page
//     plus node and overflow pages). The store opens it on a 4-page pool and
//     runs Gets, CheckInvariants, one Put of the key and the Gets again, one
//     Delete and the Gets once more, so a read sees what an edit of a page
//     did to its other records: each may fail, none may crash or loop.
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "fuzz/fuzz_util.h"
#include "src/common/file_util.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/btree/page.h"

namespace {

constexpr uint32_t kFuzzPageSize = 512;

void EditPage(std::string page, const std::string& key) {
  if (!gadget::CheckBTreePage(page).ok()) {
    return;
  }
  gadget::BTreePage view(page.data(), static_cast<uint32_t>(page.size()));
  std::string scratch;
  const size_t at = view.Find(key);
  if (view.leaf() && at < view.count()) {
    view.Erase(at);
  } else if (at == view.count()) {
    // A leaf gets a 3-byte value; an internal page, a copy of the child the
    // key descends to.
    const uint16_t tag = 3;
    const uint32_t child = view.leaf() ? 0 : view.child(view.UpperBound(key));
    const std::string head = view.leaf() ? std::string(reinterpret_cast<const char*>(&tag), 2)
                                         : std::string(reinterpret_cast<const char*>(&child), 4);
    const std::string body = view.leaf() ? "abc" : "";
    if (!view.Insert(view.LowerBound(key), {key, head, body}, &scratch)) {
      return;  // no room: the page is unchanged
    }
  }
  if (!gadget::CheckBTreePage(page).ok()) {
    std::abort();  // an edit broke a page that passed the check
  }
  view.Compact(&scratch);
  if (!gadget::CheckBTreePage(page).ok()) {
    std::abort();  // compaction broke a page that passed the check
  }
}

void RunStore(std::string_view file, const std::string& key, size_t value_size) {
  const std::string dir = gadget::fuzz::ScratchDir() + "/btree";
  // status intentionally ignored: a missing directory surfaces as an open
  // error below, which the target tolerates.
  (void)gadget::CreateDirIfMissing(dir);
  gadget::fuzz::WriteScratchFile("btree/btree.db", file);
  gadget::BTreeOptions opts;
  opts.page_size = kFuzzPageSize;
  auto pool = std::make_shared<gadget::BufferPool>(
      gadget::BufferPoolOptions{.capacity_bytes = 4 * kFuzzPageSize, .shards = 1});
  auto store = gadget::BTreeStore::Open(dir, opts, pool);
  if (!store.ok()) {
    return;
  }
  auto* tree = static_cast<gadget::BTreeStore*>(store->get());
  auto probe_all = [&] {
    for (const std::string& probe : {key, std::string(), std::string(2, '\xff')}) {
      std::string value;
      // status intentionally ignored: corrupt trees must fail reads cleanly.
      (void)tree->Get(probe, &value);
    }
  };
  probe_all();
  // status intentionally ignored: the walk reports corruption, never loops.
  (void)tree->CheckInvariants();
  // status intentionally ignored: writes to a corrupt tree may fail cleanly.
  (void)tree->Put(key, std::string(value_size, 'v'));
  probe_all();
  // status intentionally ignored: as above.
  (void)tree->Delete(key);
  probe_all();
  // status intentionally ignored: as above.
  (void)tree->Close();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  gadget::fuzz::ByteSlicer slicer(data, size);
  const uint8_t mode = slicer.TakeU8();
  const std::string key(slicer.TakeBytes(slicer.TakeU8() % 24));
  if (mode == 0) {
    EditPage(std::string(slicer.TakeRest()), key);
    return 0;
  }
  const size_t value_size = static_cast<size_t>(slicer.TakeU8()) * 8;
  RunStore(slicer.TakeRest(), key, value_size);
  return 0;
}
