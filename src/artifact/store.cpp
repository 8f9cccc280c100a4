#include "artifact/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "artifact/codec.hpp"
#include "artifact/format.hpp"
#include "obs/trace.hpp"

namespace vwr2a::artifact {

namespace {

bool set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

} // namespace

std::shared_ptr<Store> Store::open(const std::string& path,
                                   std::string* error) {
  // make_shared needs a public constructor; new + shared_ptr keeps the
  // constructor private so a Store can only exist fully validated.
  std::shared_ptr<Store> s(new Store());
  if (!s->init(path, error)) return nullptr;
  return s;
}

bool Store::init(const std::string& path, std::string* error) {
  path_ = path;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return set_error(error, "artifact: cannot open " + path + ": " +
                                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return set_error(error, "artifact: not a regular file: " + path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ < kHeaderBytes) {
    ::close(fd);
    return set_error(error, "artifact: file shorter than the header");
  }
  void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (m != MAP_FAILED) {
    map_ = static_cast<const std::uint8_t*>(m);
    mmapped_ = true;
  } else {
    // Filesystems without mmap support still get a working (if less
    // shareable) artifact: read the bytes into memory.
    fallback_.resize(size_);
    std::uint64_t got = 0;
    while (got < size_) {
      const ssize_t n = ::read(fd, fallback_.data() + got, size_ - got);
      if (n <= 0) {
        ::close(fd);
        return set_error(error, "artifact: short read of " + path);
      }
      got += static_cast<std::uint64_t>(n);
    }
    map_ = fallback_.data();
  }
  ::close(fd);  // the mapping (or the fallback buffer) keeps the bytes alive

  // --- header ----------------------------------------------------------------
  Reader h(map_, kHeaderBytes);
  const std::uint64_t magic = h.u64();
  const std::uint32_t version = h.u32();
  const std::uint32_t tag = h.u32();
  const std::uint64_t file_size = h.u64();
  const std::uint64_t payload_fnv = h.u64();
  const std::uint64_t header_fnv = h.u64();
  const std::uint64_t image_index_off = h.u64();
  const std::uint64_t image_count = h.u64();
  const std::uint64_t trace_index_off = h.u64();
  const std::uint64_t trace_count = h.u64();
  const std::uint64_t blob_off = h.u64();
  const std::uint64_t reserved = h.u64();
  if (magic != kMagic) return set_error(error, "artifact: bad magic");
  if (version != kFormatVersion) {
    return set_error(error, "artifact: format version " +
                                std::to_string(version) + ", expected " +
                                std::to_string(kFormatVersion));
  }
  if (tag != arch_tag()) {
    return set_error(error, "artifact: architecture fingerprint mismatch");
  }
  if (file_size != size_) {
    return set_error(error,
                     "artifact: header file size " + std::to_string(file_size) +
                         " != actual " + std::to_string(size_) +
                         " (truncated or extended)");
  }
  if (reserved != 0) return set_error(error, "artifact: bad reserved field");

  // Header checksum: header bytes with the checksum field zeroed.
  std::uint8_t hdr[kHeaderBytes];
  std::memcpy(hdr, map_, kHeaderBytes);
  std::memset(hdr + kOffHeaderFnv, 0, 8);
  if (fnv1a(hdr, kHeaderBytes) != header_fnv) {
    return set_error(error, "artifact: header checksum mismatch");
  }
  // Payload checksum: everything after the header. This is the line that
  // catches random corruption; entry parsing below is defense in depth.
  if (fnv1a(map_ + kHeaderBytes, size_ - kHeaderBytes) != payload_fnv) {
    return set_error(error, "artifact: payload checksum mismatch");
  }

  // --- index bounds ----------------------------------------------------------
  auto in_payload = [this](std::uint64_t off, std::uint64_t len) {
    return off >= kHeaderBytes && off <= size_ && len <= size_ - off;
  };
  if (blob_off != kHeaderBytes) {
    return set_error(error, "artifact: bad blob offset");
  }
  if (image_count > size_ / kImageEntryBytes ||
      !in_payload(image_index_off, image_count * kImageEntryBytes)) {
    return set_error(error, "artifact: image index out of bounds");
  }
  if (trace_count > size_ / kTraceEntryBytes ||
      !in_payload(trace_index_off, trace_count * kTraceEntryBytes)) {
    return set_error(error, "artifact: trace index out of bounds");
  }

  Reader ii(map_ + image_index_off, image_count * kImageEntryBytes);
  for (std::uint64_t i = 0; i < image_count; ++i) {
    const std::uint64_t key_off = ii.u64();
    const std::uint64_t key_len = ii.u64();
    const std::uint64_t pay_off = ii.u64();
    const std::uint64_t pay_len = ii.u64();
    if (!ii.ok() || !in_payload(key_off, key_len) ||
        !in_payload(pay_off, pay_len)) {
      return set_error(error, "artifact: image entry out of bounds");
    }
    const std::string_view key = bytes(key_off, key_len);
    // Strictly ascending keys: rejects duplicates and non-canonical order
    // (the builder always writes sorted -- anything else is corruption).
    if (!images_.empty() && key <= images_.rbegin()->first) {
      return set_error(error, "artifact: image index not sorted");
    }
    images_.emplace(key, Span{pay_off, pay_len});
  }

  Reader ti(map_ + trace_index_off, trace_count * kTraceEntryBytes);
  for (std::uint64_t i = 0; i < trace_count; ++i) {
    const std::uint64_t var_off = ti.u64();
    const std::uint64_t var_len = ti.u64();
    const std::uint64_t prog_off = ti.u64();
    const std::uint64_t prog_len = ti.u64();
    const std::uint64_t pay_off = ti.u64();
    const std::uint64_t pay_len = ti.u64();
    if (!ti.ok() || !in_payload(var_off, var_len) ||
        !in_payload(prog_off, prog_len) || !in_payload(pay_off, pay_len)) {
      return set_error(error, "artifact: trace entry out of bounds");
    }
    const auto key =
        std::make_pair(bytes(var_off, var_len), bytes(prog_off, prog_len));
    if (!traces_.empty() && key <= traces_.rbegin()->first) {
      return set_error(error, "artifact: trace index not sorted");
    }
    traces_.emplace(key, Span{pay_off, pay_len});
  }
  return true;
}

Store::~Store() {
  if (mmapped_ && map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), size_);
  }
}

std::shared_ptr<const isa::KernelImage> Store::load_image(
    const std::string& key) {
  const auto it = images_.find(std::string_view(key));
  if (it == images_.end()) {
    lookups_missed_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Reader r(map_ + it->second.off, it->second.len);
  auto image = std::make_shared<isa::KernelImage>();
  if (!parse_image(r, *image) || !r.at_end()) {
    parse_rejects_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  images_served_.fetch_add(1, std::memory_order_relaxed);
  obs::instant("artifact.image", 0, it->second.len);
  return image;
}

std::shared_ptr<const cgra::CompiledTrace> Store::load_trace(
    const std::string& variant, const isa::ColumnProgram& prog) {
  std::vector<std::uint8_t> prog_bytes;
  encode_program(prog, prog_bytes);
  const auto key = std::make_pair(
      std::string_view(variant),
      std::string_view(reinterpret_cast<const char*>(prog_bytes.data()),
                       prog_bytes.size()));
  const auto it = traces_.find(key);
  if (it == traces_.end()) {
    lookups_missed_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Reader r(map_ + it->second.off, it->second.len);
  auto trace = std::make_shared<cgra::CompiledTrace>();
  if (!parse_trace(r, *trace) || !r.at_end()) {
    parse_rejects_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  traces_served_.fetch_add(1, std::memory_order_relaxed);
  obs::instant("artifact.trace", 0, it->second.len);
  return trace;
}

std::pair<std::size_t, std::size_t> Store::prewarm(isa::ImageCache& cache,
                                                   const std::string& variant) {
  std::pair<std::size_t, std::size_t> done{0, 0};
  const std::string prefix = variant + "/";
  for (const auto& [key, span] : images_) {
    if (key.substr(0, prefix.size()) != prefix) continue;
    // Parse once up front so a rejected entry is skipped instead of
    // poisoning the cache; the builder closure below only runs if the
    // second (in-cache) parse somehow fails, and then serves this copy.
    const auto image = load_image(std::string(key));
    if (image == nullptr) continue;
    cache.get_or_build(std::string(key), [&image] { return *image; });
    ++done.first;
  }
  for (const auto& [key, span] : traces_) {
    if (key.first != variant) continue;
    Reader r(reinterpret_cast<const std::uint8_t*>(key.second.data()),
             key.second.size());
    isa::ColumnProgram prog;
    if (!parse_program(r, prog) || !r.at_end()) {
      parse_rejects_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // The cache misses, consults this store, and hydrates (or, for a
    // rejected payload, compiles the just-parsed program -- still correct).
    cache.traces().get_or_compile(variant, prog);
    ++done.second;
  }
  return done;
}

Store::Counters Store::counters() const {
  return Counters{images_served_.load(std::memory_order_relaxed),
                  traces_served_.load(std::memory_order_relaxed),
                  lookups_missed_.load(std::memory_order_relaxed),
                  parse_rejects_.load(std::memory_order_relaxed)};
}

std::vector<std::string_view> Store::image_keys() const {
  std::vector<std::string_view> keys;
  keys.reserve(images_.size());
  for (const auto& [key, span] : images_) keys.push_back(key);
  return keys;
}

std::vector<std::pair<std::string_view, std::uint64_t>>
Store::trace_summaries() const {
  std::vector<std::pair<std::string_view, std::uint64_t>> out;
  out.reserve(traces_.size());
  for (const auto& [key, span] : traces_) out.emplace_back(key.first, span.len);
  return out;
}

bool Store::verify_all(std::string* error) const {
  for (const auto& [key, span] : images_) {
    Reader r(map_ + span.off, span.len);
    isa::KernelImage image;
    if (!parse_image(r, image) || !r.at_end()) {
      set_error(error, "artifact: image entry fails to parse: " +
                           std::string(key));
      return false;
    }
  }
  std::size_t i = 0;
  for (const auto& [key, span] : traces_) {
    const std::string where = "artifact: trace entry " + std::to_string(i) +
                              " (variant " + std::string(key.first) + ")";
    Reader r(map_ + span.off, span.len);
    cgra::CompiledTrace trace;
    if (!parse_trace(r, trace) || !r.at_end()) {
      set_error(error, where + " fails to parse");
      return false;
    }
    // A hydrated trace must be exactly what the in-process compiler makes
    // of the program in its index key: codec drift (a field encoded,
    // parsed or derived differently) fails here instead of silently
    // changing how a prewarmed fleet replays.
    Reader pr(reinterpret_cast<const std::uint8_t*>(key.second.data()),
              key.second.size());
    isa::ColumnProgram prog;
    if (!parse_program(pr, prog) || !pr.at_end()) {
      set_error(error, where + " has a malformed program key");
      return false;
    }
    if (trace != *cgra::compile_trace(prog)) {
      set_error(error, where + " differs from compile_trace of its program");
      return false;
    }
    ++i;
  }
  return true;
}

} // namespace vwr2a::artifact
