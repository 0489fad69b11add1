// Fuzz target: SSTable reader (src/stores/lsm/sstable.h).
//
// Mode byte 0 drives SSTableReader::SearchBlock directly on the remaining
// bytes (the post-CRC entry parser, which a CRC-oblivious fuzzer would
// otherwise almost never reach); any other mode stages the bytes as a .sst
// file and exercises the full footer/index/bloom open path plus iteration
// and point lookups.
#include <cstdint>
#include <string>

#include "fuzz/fuzz_util.h"
#include "src/stores/lsm/sstable.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  gadget::fuzz::ByteSlicer slicer(data, size);
  const uint8_t mode = slicer.TakeU8();

  if (mode == 0) {
    // A short fuzz-chosen key, then the block content.
    std::string key(slicer.TakeBytes(slicer.TakeU8() % 16));
    std::string value;
    gadget::Operands operands;
    // status intentionally ignored: corrupt blocks must fail cleanly.
    (void)gadget::SSTableReader::SearchBlock(slicer.TakeRest(), key, &value, &operands, "fuzz");
    return 0;
  }

  std::string path = gadget::fuzz::WriteScratchFile("fuzz.sst", slicer.TakeRest());
  auto reader = gadget::SSTableReader::Open(path, /*file_number=*/1, /*pool=*/nullptr);
  if (!reader.ok()) {
    return 0;
  }
  // Full sequential scan (compaction's view of the table)...
  gadget::SSTableIterator it(*reader);
  while (it.Valid()) {
    it.Next();
  }
  // ...and a couple of point lookups through bloom + index + block search.
  for (std::string_view key : {std::string_view("k"), std::string_view("\xff\xff")}) {
    std::string value;
    gadget::Operands operands;
    // status intentionally ignored: corrupt tables must fail lookups cleanly.
    (void)(*reader)->Get(key, &value, &operands);
  }
  return 0;
}
