#include "campaign/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/crc32.h"

namespace grinch::campaign {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Bounds-checked sequential reader over a byte buffer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u32(std::uint32_t& v) { return copy(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return copy(&v, sizeof v); }

  bool bytes(std::string& out, std::size_t n) {
    if (data_.size() - pos_ < n) return false;
    out.assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool copy(void* dst, std::size_t n) {
    if (data_.size() - pos_ < n) return false;
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool Checkpoint::save(const std::string& path, std::string* error) const {
  std::string payload;
  payload.reserve(spec.size() + 96);
  put_u32(payload, static_cast<std::uint32_t>(spec.size()));
  payload.append(spec);
  put_u64(payload, shard_total);
  put_u64(payload, flushed_shards);
  put_u64(payload, flushed_trials);
  put_u64(payload, result_bytes);
  put_u32(payload, result_crc);
  put_u64(payload, counters.total_encryptions);
  put_u64(payload, counters.noise_restarts);
  put_u64(payload, counters.dropped_observations);
  put_u64(payload, counters.verify_restarts);
  put_u64(payload, counters.verified);
  put_u64(payload, counters.partial);
  put_u64(payload, counters.finished);

  std::string blob;
  blob.reserve(payload.size() + 24);
  put_u32(blob, kMagic);
  put_u32(blob, kVersion);
  put_u64(blob, payload.size());
  put_u32(blob, crc32(payload));
  blob.append(payload);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail(error, "cannot open " + tmp + " for writing");
  const bool wrote =
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote) {
    std::remove(tmp.c_str());
    return fail(error, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail(error, "cannot rename " + tmp + " over " + path);
  }
  return true;
}

std::optional<Checkpoint> Checkpoint::load(const std::string& path,
                                           std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fail(error, "cannot open checkpoint " + path);
    return std::nullopt;
  }
  std::string blob;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) blob.append(buf, n);
  std::fclose(f);

  Reader header{blob};
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_crc = 0;
  if (!header.u32(magic) || !header.u32(version) ||
      !header.u64(payload_size) || !header.u32(payload_crc)) {
    fail(error, path + ": truncated checkpoint header");
    return std::nullopt;
  }
  if (magic != kMagic) {
    fail(error, path + ": not a campaign checkpoint (bad magic)");
    return std::nullopt;
  }
  if (version != kVersion) {
    fail(error, path + ": unsupported checkpoint version " +
                    std::to_string(version));
    return std::nullopt;
  }
  if (header.remaining() != payload_size) {
    fail(error, path + ": checkpoint payload truncated");
    return std::nullopt;
  }
  std::string payload;
  if (!header.bytes(payload, static_cast<std::size_t>(payload_size))) {
    fail(error, path + ": checkpoint payload truncated");
    return std::nullopt;
  }
  if (crc32(payload) != payload_crc) {
    fail(error, path + ": checkpoint payload CRC mismatch");
    return std::nullopt;
  }

  Reader r{payload};
  Checkpoint ck;
  std::uint32_t spec_len = 0;
  if (!r.u32(spec_len) || !r.bytes(ck.spec, spec_len) ||
      !r.u64(ck.shard_total) || !r.u64(ck.flushed_shards) ||
      !r.u64(ck.flushed_trials) || !r.u64(ck.result_bytes) ||
      !r.u32(ck.result_crc) || !r.u64(ck.counters.total_encryptions) ||
      !r.u64(ck.counters.noise_restarts) ||
      !r.u64(ck.counters.dropped_observations) ||
      !r.u64(ck.counters.verify_restarts) || !r.u64(ck.counters.verified) ||
      !r.u64(ck.counters.partial) || !r.u64(ck.counters.finished) ||
      r.remaining() != 0) {
    fail(error, path + ": malformed checkpoint payload");
    return std::nullopt;
  }
  return ck;
}

}  // namespace grinch::campaign
