// Copyright (c) 2026 The SOS Authors. MIT License.
//
// File metadata: the unit of classification in SOS.
//
// The paper's classifier (§4.4) decides, per file, whether data is critical
// (SYS: OS files, app binaries, documents, personally significant media) or
// expendable (SPARE: low-significance, read-dominant media). Training uses
// "data collected from a large pool of previously scanned users files";
// we synthesize that pool (src/classify/corpus.h) with the attribute
// distributions reported by mobile-storage studies ([66-68]).
//
// FileMeta carries what a privileged scanning daemon could observe without
// reading full content: path, type, size, timestamps, access statistics, a
// content-entropy estimate, and an abstract `personal_signal` standing in
// for the visual/content significance analysis the paper sketches (faces,
// sensitive photos, keywords).

#ifndef SOS_SRC_CLASSIFY_FILE_META_H_
#define SOS_SRC_CLASSIFY_FILE_META_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"

namespace sos {

// Coarse file type, recoverable from extension + path.
enum class FileType : uint8_t {
  kSystem,    // OS image, libraries, executables (.so, .apk, /system/...)
  kAppData,   // app databases, settings (.db, .xml, .json)
  kDocument,  // user documents (.pdf, .docx, .txt)
  kPhoto,     // .jpg/.png/.heic
  kVideo,     // .mp4/.mov
  kAudio,     // .mp3/.flac
  kDownload,  // browser downloads, installers
  kCache,     // app caches, thumbnails, temp files
};

inline constexpr int kNumFileTypes = 8;

const char* FileTypeName(FileType type);

// Ground-truth / predicted placement class (paper §4.2).
enum class Priority : uint8_t {
  kCritical,    // SYS partition: pseudo-QLC + parity, never degraded
  kExpendable,  // SPARE partition: PLC, approximate storage
};

struct FileMeta {
  uint64_t file_id = 0;
  std::string path;
  FileType type = FileType::kCache;
  uint64_t size_bytes = 0;

  // Times are simulation timestamps (microseconds since device birth).
  SimTimeUs created_us = 0;
  SimTimeUs last_modified_us = 0;
  SimTimeUs last_accessed_us = 0;

  uint32_t read_count = 0;
  uint32_t write_count = 0;

  // Shannon-entropy estimate of content in bits/byte (compressed media ~8,
  // text ~4.5, sparse app data lower). Mobile data compresses poorly ([66]).
  double entropy_bits_per_byte = 8.0;

  // Abstract significance signal in [0,1] from content inspection (faces,
  // favorites, sensitive keywords). Stands in for the paper's visual model.
  double personal_signal = 0.0;

  // Host-declared expected lifetime of the data (0 = unknown). Workloads
  // that know their object lifetimes up front (TTL'd cache entries) set it;
  // the placement layer folds it into the handle's LifetimeHint so the FTL
  // can allocate worn blocks to short-lived data.
  uint64_t expected_lifetime_us = 0;

  // --- Synthetic ground truth (corpus generator only; never features) -----
  Priority true_priority = Priority::kCritical;
  bool will_be_deleted = false;  // user deletes this file within a year
};

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_FILE_META_H_
