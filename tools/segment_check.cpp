// segment_check — offline validator for `mpc pack` output.
//
//   segment_check <partition_dir>     validate every partition_<i>.mpcseg
//   segment_check <file.mpcseg>...    validate the listed segments
//
// Each segment is opened (which checksums every block) and then deep
// checked: every block of both runs is decoded and the TOC's claims are
// re-derived (global sort order, first/last keys, zone maps, per-property
// counts and block ranges). Prints one summary line per valid segment;
// any violation prints the ParseError and exits 1. Run it after packing
// or after copying segments between machines.

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "storage/segment_store.h"
#include "storage/segment_writer.h"

namespace {

using namespace mpc;

int CheckOne(const std::string& path) {
  Result<storage::SegmentStore> segment = storage::SegmentStore::Open(path);
  if (!segment.ok()) {
    std::cerr << path << ": " << segment.status().ToString() << "\n";
    return 1;
  }
  Status deep = segment->DeepCheck();
  if (!deep.ok()) {
    std::cerr << path << ": " << deep.ToString() << "\n";
    return 1;
  }
  const storage::SegmentHeader& h = segment->header();
  std::cout << path << ": ok — site " << h.site << "/" << h.k << ", "
            << FormatWithCommas(h.num_triples) << " triples, "
            << h.pso_num_blocks << "+" << h.pos_num_blocks << " blocks ("
            << FormatWithCommas(h.block_size) << " B), "
            << FormatWithCommas(segment->file_size()) << " B ("
            << FormatDouble(h.num_triples == 0
                                ? 0.0
                                : static_cast<double>(segment->file_size()) /
                                      static_cast<double>(h.num_triples),
                            2)
            << " B/triple), fingerprint "
            << (h.partition_fingerprint != 0 ? "bound" : "unbound") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: segment_check <partition_dir | segment.mpcseg>...\n";
    return 2;
  }
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      // All consecutively-numbered site segments in the directory.
      for (uint32_t site = 0;; ++site) {
        const std::string path = storage::SegmentPath(arg, site);
        if (!std::filesystem::exists(path, ec)) break;
        paths.push_back(path);
      }
      if (paths.empty()) {
        std::cerr << arg << ": no partition_*.mpcseg segments (run `mpc "
                     "pack` first)\n";
        return 1;
      }
    } else {
      paths.push_back(arg);
    }
  }
  int failures = 0;
  for (const std::string& path : paths) failures += CheckOne(path);
  if (failures > 0) {
    std::cerr << failures << "/" << paths.size() << " segments invalid\n";
    return 1;
  }
  std::cout << paths.size() << " segments valid\n";
  return 0;
}
