#include "sim/sweep/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/telemetry/binary.h"
#include "sim/sweep/speckey.h"

namespace ht {

bool ValidateSweepCell(const JsonValue& doc, const std::string& key, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return false;
  };
  if (doc.type() != JsonValue::Type::kObject) {
    return fail("cell document is not an object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->type() != JsonValue::Type::kString ||
      schema->as_string() != kSweepCellSchema) {
    return fail(std::string("schema is not ") + kSweepCellSchema);
  }
  const JsonValue* stored_key = doc.Find("key");
  if (stored_key == nullptr || stored_key->type() != JsonValue::Type::kString ||
      stored_key->as_string() != key) {
    return fail("stored key does not match " + key);
  }
  const JsonValue* spec = doc.Find("spec");
  if (spec == nullptr || spec->type() != JsonValue::Type::kObject) {
    return fail("missing spec object");
  }
  // The load-bearing integrity check: re-derive the key from the stored
  // spec. A truncated or hand-edited spec cannot keep hashing to the file
  // it sits in.
  if (SweepKeyFromJson(*spec) != key) {
    return fail("spec does not hash to key " + key);
  }
  std::string spec_error;
  if (!SpecFromCanonicalJson(*spec, &spec_error).has_value()) {
    return fail("stored spec is not runnable: " + spec_error);
  }
  const JsonValue* result = doc.Find("result");
  if (result == nullptr || result->type() != JsonValue::Type::kObject) {
    return fail("missing result object");
  }
  const JsonValue* stats = doc.Find("stats");
  if (stats == nullptr || stats->type() != JsonValue::Type::kObject) {
    return fail("missing stats object");
  }
  const JsonValue* digest = doc.Find("digest");
  if (digest == nullptr || digest->type() != JsonValue::Type::kString) {
    return fail("missing digest");
  }
  if (digest->as_string() != CellDigest(*result, *stats)) {
    return fail("result/stats do not match digest " + digest->as_string());
  }
  return true;
}

ResultCache::ResultCache(std::string dir, bool binary) : dir_(std::move(dir)), binary_(binary) {}

std::string ResultCache::PathFor(const std::string& key) const {
  return dir_ + "/cell_" + key + (binary_ ? kHtbExtension : ".json");
}

std::optional<JsonValue> ResultCache::Load(const std::string& key, std::string* why) const {
  if (!enabled()) {
    return std::nullopt;
  }
  // Try the configured format first, then the other one: mixed-mode
  // caches (a JSON sweep resumed with --binary-cache, or vice versa)
  // stay fully resumable. ReadTelemetryDocument sniffs content, so even
  // a mislabeled entry decodes.
  const std::string base = dir_ + "/cell_" + key;
  const char* extensions[2] = {binary_ ? kHtbExtension : ".json",
                               binary_ ? ".json" : kHtbExtension};
  std::string read_error;
  std::optional<JsonValue> doc;
  for (const char* extension : extensions) {
    std::error_code ec;
    if (!std::filesystem::exists(base + extension, ec)) {
      continue;
    }
    doc = ReadTelemetryDocument(base + extension, &read_error);
    if (doc.has_value()) {
      break;
    }
  }
  if (!doc.has_value()) {
    if (why != nullptr && !read_error.empty()) {
      *why = "unreadable cache entry: " + read_error;
    }
    return std::nullopt;
  }
  if (!ValidateSweepCell(*doc, key, why)) {
    return std::nullopt;
  }
  return doc;
}

bool ResultCache::Store(const std::string& key, const JsonValue& cell, std::string* error) const {
  if (!enabled()) {
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + dir_ + ": " + ec.message();
    }
    return false;
  }
  const std::string final_path = PathFor(key);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot open " + tmp_path;
      }
      return false;
    }
    // Format follows the cache mode, not the tmp suffix.
    if (binary_) {
      const std::string encoded = EncodeJsonBinary(cell);
      out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    } else {
      cell.Dump(out);
      out << "\n";
    }
    if (!out) {
      if (error != nullptr) {
        *error = "write failed for " + tmp_path;
      }
      return false;
    }
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot rename " + tmp_path + ": " + ec.message();
    }
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

}  // namespace ht
