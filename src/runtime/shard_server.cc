#include "runtime/shard_server.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.h"

namespace reshape::runtime {

namespace {

/// Contiguous range chunks offered per worker: more than one
/// oversubscribes, so fast workers steal load from slow ones without
/// breaking cell order.
constexpr std::size_t kRangesPerWorker = 3;

/// Sends the whole buffer; MSG_NOSIGNAL turns a dead peer into EPIPE
/// instead of SIGPIPE. Returns false on any error.
bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Receives exactly `size` bytes. Returns the bytes actually read — a
/// short count is EOF or an error, which callers treat as worker death
/// (or, at a frame boundary on the worker side, a clean hang-up).
std::size_t recv_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

bool send_frame(int fd, const std::vector<std::uint8_t>& frame) {
  return send_all(fd, frame.data(), frame.size());
}

/// One received frame; `ok` false on short read / EOF, `at_boundary`
/// true when the stream ended cleanly before any header byte.
struct RecvFrame {
  bool ok = false;
  bool at_boundary = false;
  wire::FrameHeader header;
  std::vector<std::uint8_t> payload;
};

RecvFrame recv_frame(int fd) {
  RecvFrame out;
  std::uint8_t header[wire::kFrameHeaderSize];
  const std::size_t got = recv_all(fd, header, sizeof header);
  if (got != sizeof header) {
    out.at_boundary = got == 0;
    return out;
  }
  out.header = wire::decode_frame_header({header, sizeof header});
  // The length is the peer's claim, not a promise: the buffer grows only
  // as bytes arrive, so a lying header ends in a short read instead of
  // one giant allocation.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  while (out.payload.size() < out.header.length) {
    const std::size_t have = out.payload.size();
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, out.header.length - have));
    out.payload.resize(have + want);
    if (recv_all(fd, out.payload.data() + have, want) != want) {
      return out;
    }
  }
  out.ok = true;
  return out;
}

std::vector<std::uint8_t> error_frame(std::string_view what) {
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(what.data()), what.size()};
  return wire::encode_frame(wire::FrameType::kError, bytes);
}

struct Worker {
  pid_t pid = -1;
  int fd = -1;
};

/// Forks one worker. In fork mode the child serves `factory` directly; in
/// exec mode it dup2()s the socket onto fd 3 and execs `command` with
/// `--worker-fd 3` appended. Must be called before any coordinator
/// thread starts.
Worker spawn_worker(const JobFactory& factory,
                    const std::vector<std::string>& command,
                    const std::vector<int>& sibling_fds) {
  int sv[2];
  util::require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                "shard_server: socketpair failed");
  const pid_t pid = ::fork();
  util::require(pid >= 0, "shard_server: fork failed");
  if (pid == 0) {
    // Child. Drop the parent ends — ours and every earlier worker's — so
    // no one keeps a sibling's socket alive past its owner.
    ::close(sv[0]);
    for (const int fd : sibling_fds) {
      ::close(fd);
    }
    if (command.empty()) {
      int status = 0;
      try {
        serve(sv[1], factory);
      } catch (...) {
        status = 1;
      }
      // _exit, not exit: the child must not run the parent's atexit
      // handlers or flush its inherited stdio buffers twice.
      ::_exit(status);
    }
    ::dup2(sv[1], 3);
    if (sv[1] != 3) {
      ::close(sv[1]);
    }
    std::vector<char*> argv;
    argv.reserve(command.size() + 3);
    for (const std::string& arg : command) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    static const char kFdFlag[] = "--worker-fd";
    static const char kFdValue[] = "3";
    argv.push_back(const_cast<char*>(kFdFlag));
    argv.push_back(const_cast<char*>(kFdValue));
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(sv[1]);
  return Worker{pid, sv[0]};
}

}  // namespace

void serve(int fd, const JobFactory& factory) {
  std::map<std::string, WorkerJob, std::less<>> jobs;
  for (;;) {
    const RecvFrame frame = recv_frame(fd);
    if (!frame.ok) {
      return;  // hang-up (clean at a boundary, or a dead coordinator)
    }
    if (frame.header.type == wire::FrameType::kShutdown) {
      return;
    }
    if (frame.header.type != wire::FrameType::kWorkOrder) {
      send_frame(fd, error_frame("worker: unexpected frame type"));
      continue;
    }
    std::vector<std::uint8_t> reply;
    try {
      const wire::WorkOrder order = wire::decode_work_order(frame.payload);
      auto it = jobs.find(order.job);
      if (it == jobs.end()) {
        it = jobs.emplace(order.job, factory(order.job)).first;
      }
      reply = it->second.run(order);
    } catch (const std::exception& e) {
      reply = error_frame(e.what());
    }
    if (!send_frame(fd, reply)) {
      return;
    }
  }
}

std::vector<CellRange> shard_ranges(std::size_t cell_count,
                                    const ShardConfig& config) {
  std::vector<CellRange> out;
  if (cell_count == 0) {
    return out;
  }
  const std::size_t chunks = std::min(
      std::max<std::size_t>(1, config.workers) * kRangesPerWorker,
      cell_count);
  const std::size_t base = cell_count / chunks;
  const std::size_t extra = cell_count % chunks;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    out.emplace_back(begin, begin + size);
    begin += size;
  }
  return out;
}

std::vector<std::string> dispatch(std::span<const CellRange> ranges,
                                  obs::TelemetryConfig telemetry,
                                  const ShardConfig& config,
                                  const JobFactory& factory,
                                  const ReplySink& accept) {
  std::vector<std::string> failures;
  // Not vector<bool>: coordinator threads set distinct elements
  // concurrently, which packed bits cannot tolerate.
  std::vector<unsigned char> done(ranges.size(), 0);

  const auto order_of = [&](std::size_t range) {
    wire::WorkOrder order;
    order.job = config.job;
    order.begin = ranges[range].first;
    order.end = ranges[range].second;
    order.threads = config.threads_per_worker;
    order.telemetry = telemetry;
    return order;
  };

  if (config.workers > 0 && !ranges.empty()) {
    // Spawn every worker before the first coordinator thread exists —
    // fork() from a multithreaded process may deadlock in the child.
    std::vector<Worker> workers;
    std::vector<int> parent_fds;
    workers.reserve(config.workers);
    for (std::size_t i = 0; i < config.workers; ++i) {
      workers.push_back(spawn_worker(factory, config.worker_command,
                                     parent_fds));
      parent_fds.push_back(workers.back().fd);
    }

    std::atomic<std::size_t> next{0};
    std::mutex mutex;  // guards failures
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      threads.emplace_back([&, wi] {
        const int fd = workers[wi].fd;
        // Serves ranges until none are left; returns why this worker
        // failed, or nothing when it drained cleanly. A failed range
        // stays !done and the fallback below re-runs it.
        const auto drain = [&]() -> std::optional<std::string> {
          for (;;) {
            const std::size_t range = next.fetch_add(1);
            if (range >= ranges.size()) {
              send_frame(fd,
                         wire::encode_frame(wire::FrameType::kShutdown, {}));
              return std::nullopt;
            }
            const wire::WorkOrder order = order_of(range);
            if (!send_frame(fd,
                            wire::encode_frame(wire::FrameType::kWorkOrder,
                                               encode_work_order(order)))) {
              return "worker hung up mid-order";
            }
            const RecvFrame reply = recv_frame(fd);
            if (!reply.ok) {
              return reply.at_boundary ? "worker exited before replying"
                                       : "short read from worker";
            }
            if (reply.header.type == wire::FrameType::kError) {
              return std::string{
                  reinterpret_cast<const char*>(reply.payload.data()),
                  reply.payload.size()};
            }
            if (reply.header.type != wire::FrameType::kRange) {
              return "worker sent an unexpected frame type";
            }
            // One order outstanding per worker, so this reply is the
            // claimed range's — accept() checks it says so.
            accept(range, order, reply.payload);
            done[range] = 1;
          }
        };
        // Anything a hostile reply throws — a bad header, an undecodable
        // or mismatched payload — is this worker's failure, never the
        // coordinator's.
        std::optional<std::string> failure;
        try {
          failure = drain();
        } catch (const std::exception& e) {
          failure = e.what();
        } catch (...) {
          failure = "unknown error";
        }
        if (failure) {
          const std::lock_guard<std::mutex> lock{mutex};
          failures.push_back("worker " + std::to_string(wi) + ": " +
                             *failure);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (std::size_t wi = 0; wi < workers.size(); ++wi) {
      ::close(workers[wi].fd);
      int status = 0;
      ::waitpid(workers[wi].pid, &status, 0);
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        failures.push_back("worker " + std::to_string(wi) +
                           ": exited with status " +
                           std::to_string(WEXITSTATUS(status)));
      } else if (WIFSIGNALED(status)) {
        failures.push_back("worker " + std::to_string(wi) +
                           ": killed by signal " +
                           std::to_string(WTERMSIG(status)));
      }
    }
  }

  // Unclaimed and failed ranges run here, in ascending order — the merged
  // result is complete (and identical) however many workers survived.
  WorkerJob local;
  for (std::size_t range = 0; range < ranges.size(); ++range) {
    if (done[range]) {
      continue;
    }
    if (!local.run) {
      local = factory(config.job);
    }
    const wire::WorkOrder order = order_of(range);
    const std::vector<std::uint8_t> frame = local.run(order);
    const wire::FrameHeader header = wire::decode_frame_header(frame);
    util::require(header.type == wire::FrameType::kRange &&
                      frame.size() == wire::kFrameHeaderSize + header.length,
                  "shard_server: local runner produced a malformed frame");
    accept(range, order,
           std::span{frame}.subspan(wire::kFrameHeaderSize));
  }
  return failures;
}

}  // namespace reshape::runtime
