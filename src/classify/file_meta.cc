// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/file_meta.h"

namespace sos {

const char* FileTypeName(FileType type) {
  switch (type) {
    case FileType::kSystem:
      return "system";
    case FileType::kAppData:
      return "appdata";
    case FileType::kDocument:
      return "document";
    case FileType::kPhoto:
      return "photo";
    case FileType::kVideo:
      return "video";
    case FileType::kAudio:
      return "audio";
    case FileType::kDownload:
      return "download";
    case FileType::kCache:
      return "cache";
  }
  return "???";
}

}  // namespace sos
