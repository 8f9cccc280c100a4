#pragma once
// Field-by-field serialization of the two payload types the artifact
// stores: assembled isa::KernelImage and compiled cgra::CompiledTrace
// (plus the canonical isa::ColumnProgram encoding that doubles as the
// trace-index match key). Explicitly little-endian and field-ordered --
// never a struct memcpy -- so the encoding is identical across compilers
// and padding rules, which is what the byte-determinism CI gate relies on.
//
// Parsing is the exact inverse and is paranoid: every enum tag and every
// index that will later be used to address a simulator array (energy event
// ids, block/pc references, RC/slot indices) is range-validated, so even a
// buffer that defeats the file checksums cannot drive out-of-bounds
// access. Parse functions return false on any violation and leave the
// output in an unspecified-but-safe state; callers treat false as "entry
// absent" and fall back to in-process work.

#include <cstdint>
#include <vector>

#include "artifact/format.hpp"
#include "cgra/tracecache.hpp"
#include "isa/program.hpp"

namespace vwr2a::artifact {

/// Canonical program encoding: u32 length, then per slot (LCU, LSU, MXCU,
/// RC0..RC3) `length` u32 configuration words. Used both as a trace-entry
/// payload prefix and as the exact-match key of the trace index (mirroring
/// TraceCache's collision-proof full-program comparison).
void encode_program(const isa::ColumnProgram& prog, std::vector<std::uint8_t>& out);
bool parse_program(Reader& r, isa::ColumnProgram& out);

/// KernelImage: string name, u8 columns, then both columns' programs
/// (unoccupied columns encode as length-0 programs).
void encode_image(const isa::KernelImage& image, std::vector<std::uint8_t>& out);
bool parse_image(Reader& r, isa::KernelImage& out);

/// CompiledTrace: u8 ok, string bail_reason, lines, blocks, block_of.
/// Negative results (ok = false) are stored too, so the warm path skips
/// even the failed compile attempts. The derived facts (block
/// sread/swrite and loop plans, static_reads/static_writes, has_cross) are
/// not stored: parse_trace derives them with cgra::derive_trace_facts, so
/// a parsed trace equals the compile_trace result it was encoded from.
void encode_trace(const cgra::CompiledTrace& trace, std::vector<std::uint8_t>& out);
bool parse_trace(Reader& r, cgra::CompiledTrace& out);

} // namespace vwr2a::artifact
