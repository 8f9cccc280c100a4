// vwr2a_artifact: build / inspect / verify the prebuilt binary artifact
// (src/artifact/, docs/artifact.md).
//
//   vwr2a_artifact build <path>     enumerate the kernel catalog across all
//                                   architecture variants and write the
//                                   artifact (deterministic: byte-identical
//                                   across runs and machines)
//   vwr2a_artifact inspect <path>   print header, image keys, trace summary
//   vwr2a_artifact verify <path>    validate checksums, parse every entry,
//                                   and check every trace equals a fresh
//                                   compile of its program
//
// Exit status: 0 on success, 1 on usage error, 2 when verify/inspect reject
// the file.

#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "artifact/builder.hpp"
#include "artifact/format.hpp"
#include "artifact/store.hpp"

namespace {

using namespace vwr2a;

int usage() {
  std::fprintf(stderr,
               "usage: vwr2a_artifact build|inspect|verify <path>\n"
               "  build    write the full kernel-catalog artifact to <path>\n"
               "  inspect  print the artifact's header and contents\n"
               "  verify   validate checksums, parse every entry, and\n"
               "           recompile every trace to check it matches\n");
  return 1;
}

int cmd_build(const std::string& path) {
  try {
    const artifact::BuildInfo info = artifact::build_artifact(path);
    std::printf("wrote %s: %zu images, %zu traces, %zu bytes, payload fnv %016llx\n",
                path.c_str(), info.images, info.traces, info.bytes,
                static_cast<unsigned long long>(info.payload_fnv));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "build failed: %s\n", e.what());
    return 2;
  }
}

int cmd_inspect(const std::string& path) {
  std::string why;
  const auto store = artifact::Store::open(path, &why);
  if (!store) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  std::printf("%s: format v%u, arch tag %08x, %llu bytes\n", path.c_str(),
              artifact::kFormatVersion, artifact::arch_tag(),
              static_cast<unsigned long long>(store->file_size()));
  std::printf("images: %zu\n", store->image_count());
  for (const std::string_view key : store->image_keys()) {
    std::printf("  %.*s\n", static_cast<int>(key.size()), key.data());
  }
  // Traces are keyed by (variant, canonical program bytes); the program
  // bytes are opaque, so summarize per variant.
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> per_variant;
  for (const auto& [variant, bytes] : store->trace_summaries()) {
    auto& [count, total] = per_variant[std::string(variant)];
    ++count;
    total += bytes;
  }
  std::printf("traces: %zu\n", store->trace_count());
  for (const auto& [variant, ct] : per_variant) {
    std::printf("  %-10s %3zu traces, %8llu payload bytes\n", variant.c_str(),
                ct.first, static_cast<unsigned long long>(ct.second));
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  std::string why;
  const auto store = artifact::Store::open(path, &why);
  if (!store) {
    std::fprintf(stderr, "REJECTED: %s\n", why.c_str());
    return 2;
  }
  if (!store->verify_all(&why)) {
    std::fprintf(stderr, "REJECTED: %s\n", why.c_str());
    return 2;
  }
  std::printf("OK: %zu images, %zu traces, %llu bytes\n", store->image_count(),
              store->trace_count(),
              static_cast<unsigned long long>(store->file_size()));
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc != 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  if (cmd == "build") return cmd_build(path);
  if (cmd == "inspect") return cmd_inspect(path);
  if (cmd == "verify") return cmd_verify(path);
  return usage();
}
