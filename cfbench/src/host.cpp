#include <cpuid.h>

#include <thread>

#include "report.hpp"

#ifndef CFBENCH_BUILD_TYPE
#define CFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CFBENCH_COMPILER
#define CFBENCH_COMPILER "unknown"
#endif

namespace cfbench {

Host probe_host(std::string commit, std::string source_digest) {
  Host host;
  host.hardware_threads = std::thread::hardware_concurrency();
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  // CPUID leaf 7: sub-leaf 0 has AVX-512F (EBX bit 16), VNNI (ECX bit
  // 11) and AMX-TILE (EDX bit 24); sub-leaf 1 has AVX512_BF16 (EAX 5).
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    host.avx512f = (ebx >> 16) & 1u;
    host.avx512_vnni = (ecx >> 11) & 1u;
    host.amx_tile = (edx >> 24) & 1u;
    if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0) {
      host.avx512_bf16 = (eax >> 5) & 1u;
    }
  }
  host.commit = std::move(commit);
  host.source_digest = std::move(source_digest);
  host.build_type = CFBENCH_BUILD_TYPE;
  host.compiler = CFBENCH_COMPILER;
  return host;
}

}  // namespace cfbench
