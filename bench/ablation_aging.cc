// Ablation: file-system aging and the on-disk layout dimension.
//
// Section 2: on-disk benchmarks "should evaluate the efficacy of the
// on-disk meta-data organization" - but layout quality only matters once
// free space is fragmented, and most published numbers come from freshly
// formatted images. This bench ages a small (2 GiB) partition by filling it
// to ~75% with small files spread across all block groups and deleting a
// random 60% of them, then allocates a fresh large file and measures (a)
// its physical fragmentation and (b) cold sequential read bandwidth,
// against the same file on a fresh image.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/ascii.h"

namespace fsbench {
namespace {

// Sequentially reads the whole file cold; returns MiB/s.
double ColdSequentialBandwidth(Machine& machine, const std::string& path, Bytes size) {
  Vfs& vfs = machine.vfs();
  vfs.DropCaches();
  const FsResult<int> fd = vfs.Open(path);
  if (!fd.ok()) {
    return 0.0;
  }
  const Nanos t0 = machine.clock().now();
  for (Bytes offset = 0; offset < size; offset += 256 * kKiB) {
    if (!vfs.Read(fd.value, offset, 256 * kKiB).ok()) {
      return 0.0;
    }
  }
  return static_cast<double>(size) / (1024.0 * 1024.0) /
         ToSeconds(machine.clock().now() - t0);
}

// Fraction of successive pages that are physically adjacent, and the number
// of distinct extents the file landed in.
struct LayoutQuality {
  double contiguity = 0.0;
  uint64_t fragments = 0;
};

LayoutQuality ProbeLayout(Machine& machine, const std::string& path, Bytes size) {
  LayoutQuality quality;
  FileSystem& fs = machine.fs();
  const auto attr = machine.vfs().Stat(path);
  if (!attr.ok()) {
    return quality;
  }
  // The mapping reads are not charged; the plan is only somewhere to put
  // them, so each page starts it empty.
  MetaIo io;
  BlockId last = kInvalidBlock;
  uint64_t adjacent = 0;
  const uint64_t pages = size / 4096;
  for (uint64_t page = 0; page < pages; ++page) {
    io.Reset();
    const auto mapping = fs.MapPage(attr.value.ino, page, &io);
    if (!mapping.ok() || mapping.value == kInvalidBlock) {
      return quality;
    }
    if (last != kInvalidBlock && mapping.value == last + 1) {
      ++adjacent;
    } else {
      ++quality.fragments;
    }
    last = mapping.value;
  }
  quality.contiguity =
      pages <= 1 ? 1.0 : static_cast<double>(adjacent) / static_cast<double>(pages - 1);
  return quality;
}

// Fills ~75% of the partition with 128 KiB files spread over many
// directories (and therefore block groups), then unlinks a random 60%.
bool AgePartition(Machine& machine, Rng& rng) {
  Vfs& vfs = machine.vfs();
  constexpr int kDirs = 16;
  constexpr Bytes kFileSize = 128 * kKiB;
  for (int d = 0; d < kDirs; ++d) {
    if (vfs.Mkdir("/age" + std::to_string(d)) != FsStatus::kOk) {
      return false;
    }
  }
  std::vector<std::string> files;
  const uint64_t target_files =
      (machine.config().disk.capacity * 3 / 4) / kFileSize;  // ~75% of the device
  for (uint64_t i = 0; i < target_files; ++i) {
    const std::string path =
        "/age" + std::to_string(i % kDirs) + "/f" + std::to_string(i);
    const FsStatus status = vfs.MakeFile(path, kFileSize);
    if (status == FsStatus::kNoSpace) {
      break;
    }
    if (status != FsStatus::kOk) {
      return false;
    }
    files.push_back(path);
  }
  // Random 60% deletion shreds free space into ~128 KiB holes everywhere.
  for (const std::string& path : files) {
    if (rng.NextDouble() < 0.6) {
      if (vfs.Unlink(path) != FsStatus::kOk) {
        return false;
      }
    }
  }
  return true;
}

int Run(const BenchArgs& args) {
  PrintHeader("Ablation: file-system aging vs on-disk layout quality",
              "section 2 (on-disk dimension); fresh-image benchmarking fallacy");

  // Smoke: a quarter-size partition and probe — the fill/delete aging pass
  // dominates the wall clock and shrinks with the device.
  const Bytes partition = args.smoke ? 512 * kMiB : 2 * kGiB;
  const Bytes probe_size = args.smoke ? 64 * kMiB : 256 * kMiB;

  // One host-parallel cell per (fs, fresh|aged) image; each owns a private
  // Machine and writes its own row slot so the table is identical for any
  // --jobs value.
  const FsKind fs_kinds[] = {FsKind::kExt2, FsKind::kXfs};
  struct AgingRow {
    bool ok = false;
    const char* error = "";
    LayoutQuality quality;
    double cold_mib_per_sec = 0.0;
  };
  std::vector<AgingRow> rows(4);
  RunCells(rows.size(), args.jobs, [&](size_t index) {
    const FsKind kind = fs_kinds[index / 2];
    const bool aged = (index % 2) == 1;
    AgingRow& row = rows[index];
    MachineConfig config = PaperTestbedConfig();
    config.seed = args.seed;
    config.disk.capacity = partition;  // a small, fillable partition
    Machine machine(kind, config);
    Rng rng(args.seed);
    if (aged && !AgePartition(machine, rng)) {
      row.error = "aging failed";
      return;
    }
    if (machine.vfs().MakeFile("/probe", probe_size) != FsStatus::kOk) {
      row.error = "probe allocation failed";
      return;
    }
    row.quality = ProbeLayout(machine, "/probe", probe_size);
    row.cold_mib_per_sec = ColdSequentialBandwidth(machine, "/probe", probe_size);
    row.ok = true;
  });

  AsciiTable table;
  table.SetHeader({"fs", "image", "contiguity", "fragments", "cold seq read MiB/s"});
  for (size_t index = 0; index < rows.size(); ++index) {
    const AgingRow& row = rows[index];
    if (!row.ok) {
      std::printf("%s\n", row.error);
      return 1;
    }
    table.AddRow({FsKindName(fs_kinds[index / 2]), (index % 2) == 1 ? "aged" : "fresh",
                  FormatDouble(row.quality.contiguity, 3), std::to_string(row.quality.fragments),
                  FormatDouble(row.cold_mib_per_sec, 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("reading: on the aged image the fresh file is shredded into many small\n"
              "fragments and sequential bandwidth drops accordingly; a fresh-image\n"
              "benchmark (i.e., most published ones) never sees this dimension at all.\n");
  return 0;
}

}  // namespace
}  // namespace fsbench

int main(int argc, char** argv) {
  return fsbench::Run(fsbench::ParseBenchArgs(argc, argv));
}
