// CRC32-C (Castagnoli) and the TFRecord masking scheme.
//
// The cfrecord container (data/cfrecord.hpp) reuses TFRecord's exact
// integrity framing: every length word and payload carries a masked
// CRC32-C so truncation and corruption are detected at read time.
//
// Every sample is a multi-megabyte voxel payload, so the checksum is
// real bandwidth on the read path. crc32c() uses the SSE4.2 `crc32q`
// instruction (one 8-byte fold per ~3-cycle latency chain, compiled
// with a target attribute) when cpuid reports it, chosen once per
// process, and the bytewise 256-entry table otherwise. The table
// kernel stays public as the reference the tests compare against
// (DESIGN.md §2.7 pins the two bitwise-identical).
#pragma once

#include <cstdint>
#include <span>

namespace cf::data {

/// CRC32-C over `bytes` (polynomial 0x1EDC6F41, reflected), with the
/// hardware kernel where the CPU has one.
std::uint32_t crc32c(std::span<const std::uint8_t> bytes);

/// The same CRC through the bytewise table, on every CPU (reference).
std::uint32_t crc32c_table(std::span<const std::uint8_t> bytes);

/// TFRecord CRC masking: rotate right by 15 and add a constant, so
/// CRCs stored alongside CRC-covered data do not confuse the checker.
std::uint32_t mask_crc(std::uint32_t crc);
std::uint32_t unmask_crc(std::uint32_t masked);

}  // namespace cf::data
