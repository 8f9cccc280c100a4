#pragma once
// The artifact loader: validates and memory-maps a prebuilt binary
// artifact read-only, then serves kernel images and compiled traces out of
// it on cache miss (it implements isa::ImageSource and cgra::TraceSource,
// the hydration hooks of isa::ImageCache / cgra::TraceCache).
//
// Zero-copy where it matters: the file is mmap'd once (many processes
// share the page cache of one read-only artifact -- the shard-federation
// deployment model), the index keys are string_views into the mapping, and
// nothing is parsed until a key is actually requested. Hydrating an entry
// is a flat bounds-checked parse of the mapped bytes -- a small memcpy-
// class cost, against the CASM assembly or trace compilation it replaces.
//
// Failure model: open() returns nullptr (with a reason) on *any* problem
// -- absent file, bad magic/version/arch, size mismatch, checksum failure,
// malformed index -- and lookups return nullptr for entries that fail
// their (defense-in-depth) payload parse. Callers fall back to in-process
// assembly/compilation transparently; a corrupt artifact can cost the warm
// start, never correctness (tests/test_artifact.cpp fuzzes exactly this).
//
// Thread-safe: lookups only read the immutable mapping and bump atomic
// counters.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cgra/tracecache.hpp"
#include "isa/image_cache.hpp"

namespace vwr2a::artifact {

/// The mmap'd read-only artifact.
class Store : public isa::ImageSource, public cgra::TraceSource {
 public:
  /// Hydration counters (atomic snapshots).
  struct Counters {
    std::uint64_t images_served = 0;  ///< load_image hits
    std::uint64_t traces_served = 0;  ///< load_trace hits
    std::uint64_t lookups_missed = 0; ///< keys the artifact does not hold
    std::uint64_t parse_rejects = 0;  ///< entries that failed payload parse
  };

  /// Opens, validates and maps `path`. Returns nullptr on any validation
  /// failure, with a one-line reason in *error (when non-null). Never
  /// throws for file- or content-level problems.
  static std::shared_ptr<Store> open(const std::string& path,
                                     std::string* error = nullptr);

  ~Store() override;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // --- hydration hooks --------------------------------------------------------
  std::shared_ptr<const isa::KernelImage> load_image(
      const std::string& key) override;
  std::shared_ptr<const cgra::CompiledTrace> load_trace(
      const std::string& variant, const isa::ColumnProgram& prog) override;

  /// Eagerly hydrates every image and trace of architecture variant
  /// `variant` (an soc::ArchConfig::name() string, the key namespace) into
  /// `cache`, through the cache's normal miss paths. After prewarm the
  /// device's whole working set is resident: no first-touch assembly or
  /// trace-compilation hiccup remains -- the fleet is warm without having
  /// executed a single job, which is the artifact's cold-start win
  /// (bench/cold_start.cpp gates it). Entries that fail their payload
  /// parse are skipped (counted in Counters::parse_rejects); returns
  /// (images, traces) hydrated.
  std::pair<std::size_t, std::size_t> prewarm(isa::ImageCache& cache,
                                              const std::string& variant);

  // --- introspection (CLI inspect/verify, tests) ------------------------------
  const std::string& path() const { return path_; }
  std::uint64_t file_size() const { return size_; }
  std::size_t image_count() const { return images_.size(); }
  std::size_t trace_count() const { return traces_.size(); }
  Counters counters() const;

  /// All image keys, in index (= sorted) order.
  std::vector<std::string_view> image_keys() const;
  /// All trace entries as (variant, payload byte count), in index order.
  std::vector<std::pair<std::string_view, std::uint64_t>> trace_summaries()
      const;

  /// Parses every entry in the file and recompiles every trace from the
  /// program in its index key (verify subcommand): returns false and fills
  /// *error on the first entry that fails to hydrate, or whose hydrated
  /// trace differs from the in-process compile.
  bool verify_all(std::string* error = nullptr) const;

 private:
  Store() = default;

  /// Maps the file and validates header + checksums + index bounds;
  /// returns false with a reason on any violation.
  bool init(const std::string& path, std::string* error);
  std::string_view bytes(std::uint64_t off, std::uint64_t len) const {
    return {reinterpret_cast<const char*>(map_) + off,
            static_cast<std::size_t>(len)};
  }

  std::string path_;
  const std::uint8_t* map_ = nullptr;
  std::uint64_t size_ = 0;
  bool mmapped_ = false;          ///< mmap vs read-into-memory fallback
  std::vector<std::uint8_t> fallback_;  ///< owns the bytes when !mmapped_

  struct Span {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
  };
  /// key (view into the mapping) -> payload span.
  std::map<std::string_view, Span, std::less<>> images_;
  /// (variant, canonical program bytes) -> payload span.
  std::map<std::pair<std::string_view, std::string_view>, Span, std::less<>>
      traces_;

  mutable std::atomic<std::uint64_t> images_served_{0};
  mutable std::atomic<std::uint64_t> traces_served_{0};
  mutable std::atomic<std::uint64_t> lookups_missed_{0};
  mutable std::atomic<std::uint64_t> parse_rejects_{0};
};

} // namespace vwr2a::artifact
