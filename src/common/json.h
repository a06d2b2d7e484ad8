// Minimal JSON document builder + reader for machine-readable I/O.
//
// The bench harnesses (bench/bench_util.h) serialize their results,
// configuration and wall-clock into `BENCH_<name>.json` so the perf
// trajectory of the repo is tracked mechanically (tools/run_bench.sh
// aggregates them; CI uploads the aggregate per PR).  The campaign layer
// (src/campaign/) added the read direction: CampaignSpec files are parsed
// with json::parse and result records are streamed as JSONL via
// dump_compact().
//
// Determinism: dump()/dump_compact() emit keys in insertion order and
// format doubles with a fixed shortest-roundtrip format, so two runs that
// computed the same values serialize to identical bytes (the determinism
// suite compares serialized documents across thread counts, and the
// campaign resume contract depends on record bytes being reproducible).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace grinch::json {

/// A JSON value: object / array / string / number / bool / null.
class Value {
 public:
  Value() noexcept : kind_(Kind::kNull) {}
  Value(bool b) noexcept : kind_(Kind::kBool), bool_(b) {}          // NOLINT
  Value(double d) noexcept : kind_(Kind::kDouble), double_(d) {}    // NOLINT
  Value(std::int64_t i) noexcept : kind_(Kind::kInt), int_(i) {}    // NOLINT
  Value(std::uint64_t u) noexcept : kind_(Kind::kUint), uint_(u) {} // NOLINT
  Value(int i) noexcept : Value(static_cast<std::int64_t>(i)) {}    // NOLINT
  Value(unsigned u) noexcept                                        // NOLINT
      : Value(static_cast<std::uint64_t>(u)) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {} // NOLINT
  Value(const char* s) : Value(std::string(s)) {}                   // NOLINT

  [[nodiscard]] static Value object();
  [[nodiscard]] static Value array();

  /// Object member set (insertion-ordered; re-setting a key overwrites in
  /// place).  The value must be (or become) an object.
  Value& set(const std::string& key, Value v);

  /// Array append.  The value must be (or become) an array.
  Value& push(Value v);

  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }

  // --- read accessors (the parse direction) ---

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* get(std::string_view key) const noexcept;

  /// Members in insertion order (empty unless an object).
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const noexcept {
    return members_;
  }

  /// Elements in order (empty unless an array).
  [[nodiscard]] const std::vector<Value>& elements() const noexcept {
    return elements_;
  }

  /// Value reads with a fallback on kind mismatch.  Numbers convert
  /// across int/uint/double (u64 reads reject negatives, both integer
  /// reads reject non-integral doubles).
  [[nodiscard]] std::string as_string(const std::string& fallback = "") const;
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const noexcept;
  /// The number as_u64 reads; nullopt where it would fall back.
  [[nodiscard]] std::optional<std::uint64_t> to_u64() const noexcept;
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;

  /// Serializes with 2-space indentation and a trailing newline at the
  /// top level.
  [[nodiscard]] std::string dump() const;

  /// Single-line serialization (no indentation, no trailing newline) —
  /// the JSONL record format of the campaign result stream.
  [[nodiscard]] std::string dump_compact() const;

 private:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kObject, kArray
  };

  void write(std::string& out, unsigned depth) const;
  void write_compact(std::string& out) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<std::pair<std::string, Value>> members_;  ///< object
  std::vector<Value> elements_;                         ///< array
};

/// Escapes a string for embedding in a JSON document (no quotes added).
[[nodiscard]] std::string escape(const std::string& s);

/// Parses one JSON document (the subset dump() emits: objects, arrays,
/// strings with the escape() escapes plus \/ \b \f \uXXXX, numbers,
/// booleans, null).  Trailing non-whitespace, trailing commas, comments
/// and duplicate keys are rejected.  On failure returns nullopt and, when
/// `error` is non-null, a one-line "offset N: reason" diagnostic.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

}  // namespace grinch::json
