// Stack sampler preloaded into one perfbench run by scripts/host_profile.py.
//
// cpu mode (default): ITIMER_PROF delivers SIGPROF every 1/GEOTP_PROF_HZ
// seconds of process CPU time; the handler records the interrupted stack.
// alloc mode: malloc, calloc and realloc are interposed and every
// GEOTP_PROF_EVERY-th call records the caller's stack.
//
// clock_gettime is interposed too: perfbench brackets each timed part
// (setup, a run slice, a calibration-kernel batch) with two reads of
// CLOCK_THREAD_CPUTIME_ID, so every such read flips an "inside a timed
// part" flag that each sample records.
//
// Stacks go to a preallocated buffer (nothing allocates in the handler).
// At exit the buffer is written to GEOTP_PROF_OUT, followed by one line
// per distinct address with the object that holds it (dladdr), which
// host_profile.py symbolizes and aggregates:
//
//   S <timed> <depth> <leaf pc> <return address> ...
//   A <address> <object load base> <object path> [<dynamic symbol>]
//
// Build: g++ -O2 -shared -fPIC -o sampler.so host_profile_sampler.cc -ldl
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>

extern "C" {
void* __libc_malloc(size_t size);
void* __libc_calloc(size_t count, size_t size);
void* __libc_realloc(void* ptr, size_t size);
}

namespace {

constexpr int kMaxDepth = 64;
/// Buffer words: each sample is its timed flag and depth (one word)
/// followed by its frames.
constexpr size_t kBufferWords = size_t{16} << 20;  // 128 MB reserved

uintptr_t* buffer = nullptr;
size_t used = 0;
bool full = false;
bool alloc_mode = false;
long alloc_every = 1;
long alloc_calls = 0;
int timed = 0;
using ClockGettime = int (*)(clockid_t, timespec*);
ClockGettime real_clock_gettime = nullptr;
__thread int in_sampler __attribute__((tls_model("initial-exec"))) = 0;

void Record(void* const* frames, int depth) {
  if (buffer == nullptr || depth <= 0) return;
  if (used + 1 + static_cast<size_t>(depth) > kBufferWords) {
    full = true;
    return;
  }
  buffer[used++] = (static_cast<uintptr_t>(timed) << 32) |
                   static_cast<uintptr_t>(depth);
  for (int i = 0; i < depth; ++i) {
    buffer[used++] = reinterpret_cast<uintptr_t>(frames[i]);
  }
}

void OnProf(int, siginfo_t*, void* context) {
  if (in_sampler) return;
  in_sampler = 1;
  void* frames[kMaxDepth + 4];
  const int n = backtrace(frames, kMaxDepth + 4);
  // Drop the handler and the signal trampoline: start at the interrupted
  // instruction, which the unwinder reports exactly.
  const auto* uc = static_cast<const ucontext_t*>(context);
  void* const pc = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
  int start = 0;
  while (start < n && frames[start] != pc) ++start;
  if (start == n) {
    frames[0] = pc;  // unwinder lost the signal frame: the leaf alone
    Record(frames, 1);
  } else {
    Record(frames + start, std::min(n - start, kMaxDepth));
  }
  in_sampler = 0;
}

void SampleAlloc() {
  if (in_sampler || buffer == nullptr) return;
  if (++alloc_calls % alloc_every != 0) return;
  in_sampler = 1;
  void* frames[kMaxDepth + 2];
  const int n = backtrace(frames, kMaxDepth + 2);
  // Frame 0 is this function, frame 1 the interposed allocator.
  if (n > 2) Record(frames + 2, std::min(n - 2, kMaxDepth));
  in_sampler = 0;
}

void WriteOut() {
  const char* path = getenv("GEOTP_PROF_OUT");
  if (path == nullptr || buffer == nullptr) return;
  in_sampler = 1;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  FILE* out = fopen(path, "w");
  if (out == nullptr) return;
  fprintf(out, "# mode %s every %ld calls %ld full %d\n",
          alloc_mode ? "alloc" : "cpu", alloc_every, alloc_calls,
          full ? 1 : 0);
  // Distinct addresses, for one dladdr each.
  size_t distinct = 0;
  uintptr_t* addrs = static_cast<uintptr_t*>(
      mmap(nullptr, used * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0));
  for (size_t i = 0; i < used;) {
    const size_t depth = buffer[i] & 0xffffffffu;
    fprintf(out, "S %d %zu", static_cast<int>(buffer[i] >> 32), depth);
    ++i;
    for (size_t j = 0; j < depth; ++j, ++i) {
      fprintf(out, " %lx", static_cast<unsigned long>(buffer[i]));
      if (addrs != MAP_FAILED) addrs[distinct++] = buffer[i];
    }
    fputc('\n', out);
  }
  if (addrs != MAP_FAILED) {
    std::sort(addrs, addrs + distinct);
    distinct = static_cast<size_t>(std::unique(addrs, addrs + distinct) - addrs);
    for (size_t i = 0; i < distinct; ++i) {
      Dl_info info{};
      if (dladdr(reinterpret_cast<void*>(addrs[i]), &info) == 0) continue;
      fprintf(out, "A %lx %lx %s %s\n", static_cast<unsigned long>(addrs[i]),
              reinterpret_cast<unsigned long>(info.dli_fbase),
              info.dli_fname != nullptr && info.dli_fname[0] != '\0'
                  ? info.dli_fname
                  : "-",
              info.dli_sname != nullptr ? info.dli_sname : "");
    }
  }
  fclose(out);
}

__attribute__((constructor)) void Start() {
  real_clock_gettime =
      reinterpret_cast<ClockGettime>(dlsym(RTLD_NEXT, "clock_gettime"));
  if (getenv("GEOTP_PROF_OUT") == nullptr) return;
  void* mem = mmap(nullptr, kBufferWords * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  // The unwinder loads on its first call, which may allocate: do that here,
  // outside any handler.
  void* warm[4];
  in_sampler = 1;
  backtrace(warm, 4);
  in_sampler = 0;
  buffer = static_cast<uintptr_t*>(mem);
  const char* mode = getenv("GEOTP_PROF_MODE");
  alloc_mode = mode != nullptr && strcmp(mode, "alloc") == 0;
  if (alloc_mode) {
    const char* every = getenv("GEOTP_PROF_EVERY");
    alloc_every = every != nullptr ? std::max(1L, atol(every)) : 1;
  } else {
    const char* hz_env = getenv("GEOTP_PROF_HZ");
    const long hz = hz_env != nullptr ? std::max(1L, atol(hz_env)) : 1000;
    struct sigaction sa {};
    sa.sa_sigaction = OnProf;
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval timer{};
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
  }
  atexit(WriteOut);
}

}  // namespace

extern "C" {

int clock_gettime(clockid_t clock, timespec* ts) {
  if (clock == CLOCK_THREAD_CPUTIME_ID) timed ^= 1;
  return real_clock_gettime(clock, ts);
}

void* malloc(size_t size) {
  if (alloc_mode) SampleAlloc();
  return __libc_malloc(size);
}

void* calloc(size_t count, size_t size) {
  if (alloc_mode) SampleAlloc();
  return __libc_calloc(count, size);
}

void* realloc(void* ptr, size_t size) {
  if (alloc_mode) SampleAlloc();
  return __libc_realloc(ptr, size);
}

}  // extern "C"
