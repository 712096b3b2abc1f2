// Process-backed transport: each worker slot is a recloud_worker process on
// the far side of a Unix-domain socket pair, served by one master-side I/O
// thread.
//
// Restartability is the point: a dead worker process (an injected chaos
// crash is a real _exit, an external SIGKILL is a real SIGKILL) fails its
// in-flight dispatches with transport_error — the engine's recovery counts
// a worker crash and re-dispatches the batch — while the I/O thread
// respawns the process and re-feeds it the environment and the current
// assessment setup, so the slot serves later batches as if nothing
// happened. Determinism survives because the worker is a pure function
// framed task -> framed result over state the master ships.
//
// Threading: ONE I/O thread per slot multiplexes reads and writes over a
// nonblocking fd with poll() (a writer that blocked while the worker also
// blocked writing its result would deadlock both kernel buffers); dispatch
// enqueues and pokes a self-pipe.
#include "exec/transport.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/worker_protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace recloud {

std::string default_worker_binary() {
    if (const char* env = std::getenv("RECLOUD_WORKER_BIN");
        env != nullptr && *env != '\0') {
        return env;
    }
    // Sibling of the running executable, the layout the build tree and an
    // installed prefix both produce.
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n > 0) {
        self[n] = '\0';
        std::string path{self};
        const std::size_t slash = path.find_last_of('/');
        if (slash != std::string::npos) {
            std::string sibling = path.substr(0, slash + 1) + "recloud_worker";
            if (::access(sibling.c_str(), X_OK) == 0) {
                return sibling;
            }
        }
    }
    return "recloud_worker";  // PATH lookup by execvp
}

namespace {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        throw transport_error{"fcntl(O_NONBLOCK) failed"};
    }
}

void close_quiet(int& fd) noexcept {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/// Deterministic nonzero flow id for one (batch, attempt, worker) dispatch:
/// splitmix64 finalizer over the packed triple. Both sides derive nothing —
/// the id travels in the envelope — so it only has to be unique-ish within
/// a capture.
std::uint64_t flow_id_of(std::uint64_t batch, std::uint64_t attempt,
                         std::uint64_t worker) noexcept {
    std::uint64_t z =
        (batch * 0x9e3779b97f4a7c15ULL) ^ (attempt << 21) ^ (worker << 42);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z | 1;  // 0 means "no flow" on the wire
}

class socket_transport final : public engine_transport {
public:
    socket_transport(std::size_t workers, const transport_env& env,
                     const socket_transport_options& options)
        : options_(options) {
        if (workers == 0) {
            throw std::invalid_argument{"socket transport needs >= 1 worker"};
        }
        if (options_.worker_binary.empty()) {
            options_.worker_binary = default_worker_binary();
        }
        slots_.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            slots_.push_back(std::make_unique<slot>());
            slots_[w]->env_blob = encode_worker_environment(env, w);
        }
        try {
            for (std::size_t w = 0; w < workers; ++w) {
                spawn_worker(*slots_[w]);
                slots_[w]->io = std::thread{[this, w] { io_loop(*slots_[w]); }};
            }
        } catch (...) {
            shutdown_fleet();
            throw;
        }
        // Final-harvest-at-shutdown only pays off (and only costs a
        // round-trip) when observability was on when the fleet started —
        // the same state the env blob shipped to the workers.
        harvest_at_shutdown_ = obs::metrics_registry::global().enabled() ||
                               obs::tracer::global().enabled();
        started_ = true;
    }

    ~socket_transport() override { shutdown_fleet(); }

    [[nodiscard]] const char* name() const noexcept override {
        return "socket";
    }
    [[nodiscard]] std::size_t workers() const noexcept override {
        return slots_.size();
    }

    std::uint64_t begin_assessment(
        std::span<const std::byte> framed_setup) override {
        // A worker holding a context from an earlier assessment rebinds it
        // in place, so its verdict cache keeps the entries the plan swap
        // cannot affect; a respawned worker builds a fresh one from the
        // same message, which the slot keeps for replay.
        const std::vector<std::byte> msg = pack_envelope(
            worker_msg::setup, 0, 0, framed_setup);
        for (const auto& s : slots_) {
            const std::lock_guard lock{s->mu};
            s->setup = msg;  // respawns replay it
            if (!s->dead) {
                s->outgoing.push_back(msg);
                poke(*s);
            }
        }
        return static_cast<std::uint64_t>(framed_setup.size()) * slots_.size();
    }

    [[nodiscard]] std::future<std::vector<std::byte>> dispatch(
        std::size_t worker, std::span<const std::byte> framed_task,
        std::uint64_t batch, std::uint64_t attempt) override {
        RECLOUD_COUNTER_INC("engine.transport.dispatches");
        RECLOUD_COUNTER_ADD("engine.transport.bytes_sent", framed_task.size());
        // Distributed-trace propagation: tag the envelope with a flow id and
        // open the flow here; the worker closes it on its batch span, so the
        // merged export stitches dispatch -> execute across the pid boundary.
        obs::tracer& tracer = obs::tracer::global();
        std::uint64_t trace_id = 0;
        std::uint64_t flow = 0;
        if (tracer.enabled()) {
            trace_id = tracer.epoch_ns();
            flow = flow_id_of(batch, attempt, worker);
            tracer.record_flow("engine.dispatch.send", tracer.now_ns(), 0,
                               flow, obs::flow_start);
        }
        slot& s = *slots_[worker];
        std::promise<std::vector<std::byte>> promise;
        std::future<std::vector<std::byte>> future = promise.get_future();
        {
            const std::lock_guard lock{s.mu};
            if (s.dead) {
                promise.set_exception(std::make_exception_ptr(transport_error{
                    "worker slot dead (respawn budget exhausted)"}));
                return future;
            }
            s.pending.push_back({batch, attempt, std::move(promise)});
            s.outgoing.push_back(pack_envelope(worker_msg::task, batch,
                                               attempt, framed_task, trace_id,
                                               flow));
            poke(s);
        }
        return future;
    }

    void harvest_telemetry() override {
        // One harvest at a time: replies match waiters per slot, and the
        // fold below must see a consistent fleet pass.
        const std::lock_guard harvest_lock{harvest_mu_};
        const std::uint64_t seq = ++harvest_seq_;
        const std::vector<std::byte> request =
            pack_envelope(worker_msg::telemetry, 0, seq, {});
        std::vector<std::pair<slot*, std::future<worker_telemetry>>> waits;
        waits.reserve(slots_.size());
        for (const auto& s : slots_) {
            const std::lock_guard lock{s->mu};
            if (s->dead || s->fd < 0) {
                continue;
            }
            s->telemetry_pending.emplace();
            waits.emplace_back(s.get(), s->telemetry_pending->get_future());
            s->outgoing.push_back(request);
            poke(*s);
        }
        for (auto& [s, fut] : waits) {
            if (fut.wait_for(harvest_timeout) != std::future_status::ready) {
                // Abandon under the slot lock: a reply racing in either beat
                // the reset (future already ready) or finds no waiter.
                const std::lock_guard lock{s->mu};
                s->telemetry_pending.reset();
                if (fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    continue;
                }
            }
            try {
                fold_harvest(fut.get());
            } catch (const std::exception&) {
                // Worker died or sent garbage mid-harvest: the respawn
                // machinery owns the death; telemetry just misses a round.
            }
        }
    }

    [[nodiscard]] worker_fleet_telemetry fleet_telemetry() const override {
        const std::lock_guard lock{fleet_mu_};
        return {fleet_};
    }

    [[nodiscard]] const verdict_cache_stats* cache_stats()
        const noexcept override {
        const std::lock_guard lock{fleet_mu_};
        if (!have_harvest_) {
            return nullptr;  // nothing pulled back from the fleet yet
        }
        return &fleet_cache_;
    }

    [[nodiscard]] std::uint64_t respawns() const noexcept override {
        return respawns_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] std::size_t live_worker_processes() const noexcept override {
        std::size_t live = 0;
        for (const auto& s : slots_) {
            const std::lock_guard lock{s->mu};
            if (!s->dead && s->pid > 0) {
                ++live;
            }
        }
        return live;
    }

    [[nodiscard]] std::vector<int> worker_pids() const override {
        std::vector<int> pids;
        pids.reserve(slots_.size());
        for (const auto& s : slots_) {
            const std::lock_guard lock{s->mu};
            pids.push_back(s->dead ? -1 : static_cast<int>(s->pid));
        }
        return pids;
    }

private:
    struct pending_result {
        std::uint64_t batch = 0;
        std::uint64_t attempt = 0;
        std::promise<std::vector<std::byte>> promise;
    };

    struct slot {
        mutable std::mutex mu;
        int fd = -1;
        pid_t pid = -1;
        int wake_r = -1;
        int wake_w = -1;
        std::thread io;
        std::vector<std::byte> env_blob;      ///< immutable after ctor
        std::vector<std::byte> setup;          ///< current assessment (framed envelope)
        std::deque<std::vector<std::byte>> outgoing;
        std::size_t write_off = 0;  ///< progress into outgoing.front()
        std::deque<pending_result> pending;
        /// At most one in-flight harvest reply (harvest_mu_ serializes
        /// fleet passes; death fails it, a timeout abandons it).
        std::optional<std::promise<worker_telemetry>> telemetry_pending;
        frame_assembler assembler;
        std::size_t respawns_used = 0;
        bool dead = false;
    };

    /// Wakes a slot's poll() (write end is nonblocking; a full pipe already
    /// guarantees a pending wake-up, so EAGAIN is fine).
    static void poke(slot& s) noexcept {
        if (s.wake_w >= 0) {
            const char b = 1;
            [[maybe_unused]] const ssize_t n = ::write(s.wake_w, &b, 1);
        }
    }

    /// Forks + execs one worker process for the slot and completes the
    /// env/hello handshake (blocking, bounded by spawn_timeout). On success
    /// the slot's fd is nonblocking and its assembler fresh. Caller holds no
    /// lock (ctor) or the slot is only touched by its own I/O thread.
    void spawn_worker(slot& s) {
        // The wake pipe goes into the slot before anything can throw, so a
        // failed first spawn still has its fds closed by shutdown_fleet.
        // O_CLOEXEC (atomically, pipe2 — a concurrent respawn's fork must
        // not capture these) keeps other slots' children from inheriting
        // them; same for the master-side socket below, so a worker never
        // holds a sibling's socket open past a master crash.
        if (s.wake_r < 0) {
            int wake[2];
            if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0) {
                throw transport_error{"pipe2 failed"};
            }
            const std::lock_guard lock{s.mu};
            s.wake_r = wake[0];
            s.wake_w = wake[1];
        }
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
            throw transport_error{"socketpair failed"};
        }
        const std::string fd_arg = std::to_string(fds[1]);
        std::size_t index = 0;
        for (; index < slots_.size(); ++index) {
            if (slots_[index].get() == &s) {
                break;
            }
        }
        const std::string worker_arg = std::to_string(index);
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            throw transport_error{"fork failed"};
        }
        if (pid == 0) {
            // Child: keep only the worker end across exec — everything else
            // (sibling sockets, wake pipes, master-side end) is CLOEXEC.
            ::close(fds[0]);
            ::fcntl(fds[1], F_SETFD, 0);
            const char* argv[] = {options_.worker_binary.c_str(), "--fd",
                                  fd_arg.c_str(),  "--worker",
                                  worker_arg.c_str(), nullptr};
            ::execvp(argv[0], const_cast<char* const*>(argv));
            ::_exit(127);  // exec failed; master sees EOF
        }
        ::close(fds[1]);
        // Handshake on a still-blocking fd: ship the environment, wait for
        // hello (sent only after the worker decoded it).
        // set_nonblocking stays inside the guarded region: any failure past
        // the fork must close the fd AND kill+reap the live child, not leak
        // them.
        bool ok = false;
        try {
            fd_write_all(fds[0],
                         pack_envelope(worker_msg::env, 0, 0, s.env_blob));
            ok = await_hello(fds[0]);
            if (ok) {
                set_nonblocking(fds[0]);
            }
        } catch (const transport_error&) {
            ok = false;
        }
        if (!ok) {
            ::close(fds[0]);
            ::kill(pid, SIGKILL);
            int status = 0;
            ::waitpid(pid, &status, 0);
            throw transport_error{
                "worker failed to start (binary '" + options_.worker_binary +
                "': exec failure, env rejected, or hello timeout)"};
        }
        const std::lock_guard lock{s.mu};
        s.fd = fds[0];
        s.pid = pid;
        s.write_off = 0;
        s.assembler = frame_assembler{options_.max_frame_payload};
    }

    /// Blocks (poll + read) until the worker's hello frame, EOF, or the
    /// spawn timeout. Leftover bytes past the hello would be a protocol
    /// violation (workers only speak when spoken to), so they are dropped.
    [[nodiscard]] bool await_hello(int fd) const {
        frame_assembler assembler{options_.max_frame_payload};
        const auto deadline =
            std::chrono::steady_clock::now() + options_.spawn_timeout;
        std::byte buf[4096];
        for (;;) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) {
                return false;
            }
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                      now);
            struct pollfd p {fd, static_cast<short>(POLLIN), 0};
            const int rc = ::poll(&p, 1, static_cast<int>(left.count()) + 1);
            if (rc < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return false;
            }
            if (rc == 0) {
                return false;
            }
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0) {
                if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
                    continue;
                }
                return false;  // EOF: the child died (exec failure, env rejected)
            }
            try {
                assembler.feed(std::span<const std::byte>{buf,
                                                          static_cast<std::size_t>(n)});
                while (auto frame = assembler.next_frame()) {
                    if (unpack_envelope(*frame).kind == worker_msg::hello) {
                        return true;
                    }
                }
            } catch (const serialize_error&) {
                return false;
            }
        }
    }

    /// Serves one slot for the transport's lifetime: multiplexes queued
    /// writes and result reads, and turns process death into failed
    /// promises + (budget permitting) a respawn.
    void io_loop(slot& s) {
        while (!stop_.load(std::memory_order_acquire)) {
            int fd = -1;
            bool want_write = false;
            {
                const std::lock_guard lock{s.mu};
                if (s.dead) {
                    return;
                }
                fd = s.fd;
                want_write = !s.outgoing.empty();
            }
            struct pollfd ps[2] = {
                {fd, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0},
                {s.wake_r, static_cast<short>(POLLIN), 0},
            };
            const int rc = ::poll(ps, 2, 250);
            if (rc < 0 && errno != EINTR) {
                handle_death(s);
                continue;
            }
            if (ps[1].revents & POLLIN) {
                std::byte drain[256];
                while (::read(s.wake_r, drain, sizeof(drain)) > 0) {
                }
            }
            if (ps[0].revents & POLLOUT) {
                if (!flush_writes(s)) {
                    handle_death(s);
                    continue;
                }
            }
            if (ps[0].revents & (POLLIN | POLLHUP | POLLERR)) {
                if (!drain_reads(s)) {
                    handle_death(s);
                    continue;
                }
            }
        }
        // Shutdown: flush the farewell (shutdown envelope) best-effort.
        flush_writes(s);
    }

    /// Writes queued envelopes until EAGAIN or empty. False = peer gone.
    bool flush_writes(slot& s) {
        for (;;) {
            std::vector<std::byte>* front = nullptr;
            std::size_t off = 0;
            int fd = -1;
            {
                const std::lock_guard lock{s.mu};
                if (s.outgoing.empty() || s.fd < 0) {
                    return true;
                }
                front = &s.outgoing.front();
                off = s.write_off;
                fd = s.fd;
            }
            // MSG_NOSIGNAL: a worker may be SIGKILLed between the poll and
            // this send; the death must come back as EPIPE, not SIGPIPE.
            const ssize_t n = ::send(fd, front->data() + off,
                                     front->size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    return true;
                }
                if (errno == EINTR) {
                    continue;
                }
                return false;  // EPIPE etc: worker died
            }
            const std::lock_guard lock{s.mu};
            s.write_off += static_cast<std::size_t>(n);
            if (s.write_off == s.outgoing.front().size()) {
                s.outgoing.pop_front();
                s.write_off = 0;
            }
        }
    }

    /// Reads whatever the kernel has and settles matching promises.
    /// False = EOF/error (worker died) or poisoned stream.
    bool drain_reads(slot& s) {
        std::byte buf[65536];
        for (;;) {
            const ssize_t n = ::read(s.fd, buf, sizeof(buf));
            if (n == 0) {
                return false;  // EOF
            }
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    return true;
                }
                if (errno == EINTR) {
                    continue;
                }
                return false;
            }
            try {
                s.assembler.feed(
                    std::span<const std::byte>{buf, static_cast<std::size_t>(n)});
                while (auto frame = s.assembler.next_frame()) {
                    handle_frame(s, *frame);
                }
            } catch (const serialize_error&) {
                // Outer-envelope desync: the stream is unusable; treat the
                // worker as dead (its in-flight work fails + respawn).
                return false;
            }
        }
    }

    void handle_frame(slot& s, std::span<const std::byte> frame) {
        envelope msg = unpack_envelope(frame);
        if (msg.kind == worker_msg::telemetry) {
            std::optional<std::promise<worker_telemetry>> waiter;
            {
                const std::lock_guard lock{s.mu};
                waiter.swap(s.telemetry_pending);
            }
            if (waiter) {
                // A malformed reply fails this waiter only — the outer
                // envelope was valid, so the stream itself is fine.
                try {
                    waiter->set_value(decode_worker_telemetry(msg.blob));
                } catch (const serialize_error&) {
                    waiter->set_exception(std::current_exception());
                }
            }
            return;
        }
        if (msg.kind != worker_msg::result) {
            return;  // late hello after respawn handshake; ignore
        }
        RECLOUD_COUNTER_INC("engine.transport.results");
        RECLOUD_COUNTER_ADD("engine.transport.bytes_received",
                            msg.blob.size());
        std::promise<std::vector<std::byte>> promise;
        bool found = false;
        {
            const std::lock_guard lock{s.mu};
            for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
                if (it->batch == msg.batch && it->attempt == msg.attempt) {
                    promise = std::move(it->promise);
                    s.pending.erase(it);
                    found = true;
                    break;
                }
            }
        }
        if (found) {
            promise.set_value(std::move(msg.blob));
        }
        // else: result for an attempt the engine already abandoned — drop.
    }

    /// The worker process is gone: fail its in-flight work (the engine's
    /// recovery takes over) and respawn into the same slot if the budget
    /// allows, re-feeding env + current setup.
    void handle_death(slot& s) {
        std::deque<pending_result> failed;
        std::optional<std::promise<worker_telemetry>> tele;
        pid_t pid = -1;
        {
            const std::lock_guard lock{s.mu};
            close_quiet(s.fd);
            failed.swap(s.pending);
            tele.swap(s.telemetry_pending);
            s.outgoing.clear();
            s.write_off = 0;
            pid = s.pid;
            s.pid = -1;
        }
        if (pid > 0) {
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        for (pending_result& p : failed) {
            p.promise.set_exception(std::make_exception_ptr(
                transport_error{"worker process died mid-batch"}));
        }
        if (tele) {
            tele->set_exception(std::make_exception_ptr(
                transport_error{"worker process died mid-harvest"}));
        }
        if (stop_.load(std::memory_order_acquire)) {
            mark_dead(s);
            return;
        }
        while (s.respawns_used < options_.max_respawns &&
               !stop_.load(std::memory_order_acquire)) {
            ++s.respawns_used;
            respawns_.fetch_add(1, std::memory_order_relaxed);
            RECLOUD_COUNTER_INC("engine.transport.respawns");
            try {
                spawn_worker(s);
            } catch (const transport_error&) {
                continue;  // burn another respawn credit
            }
            const std::lock_guard lock{s.mu};
            if (!s.setup.empty()) {
                // Front, not back: a task dispatched while the respawn was
                // in flight is already queued and must not reach the fresh
                // worker before its setup. A respawned worker rebuilds its
                // context (and a cold cache) from it; only the warm state
                // is lost.
                s.outgoing.push_front(s.setup);
            }
            return;
        }
        mark_dead(s);  // engine degrades around the slot
    }

    /// Declares the slot dead for good. Dispatches may have raced into
    /// `pending` since the death swap — fail them under the SAME lock that
    /// flips `dead`, so no future can ever be left unsettled.
    static void mark_dead(slot& s) {
        std::deque<pending_result> orphaned;
        std::optional<std::promise<worker_telemetry>> tele;
        {
            const std::lock_guard lock{s.mu};
            s.dead = true;
            orphaned.swap(s.pending);
            tele.swap(s.telemetry_pending);
            s.outgoing.clear();
            s.write_off = 0;
        }
        for (pending_result& p : orphaned) {
            p.promise.set_exception(std::make_exception_ptr(
                transport_error{"worker slot dead (respawn budget exhausted)"}));
        }
        if (tele) {
            tele->set_exception(std::make_exception_ptr(
                transport_error{"worker slot dead (respawn budget exhausted)"}));
        }
    }

    /// Stops I/O threads, asks workers to exit, reaps every child.
    /// Idempotent — the ctor failure path and the dtor both run it.
    void shutdown_fleet() noexcept {
        // Final harvest BEFORE stop: worker counters accumulated since the
        // last on-demand pull (or the whole run, if none happened) would
        // otherwise die with the processes. Skipped when observability was
        // off at fleet start — nothing to pull, and chaos-heavy tests must
        // not pay a per-shutdown round-trip.
        if (started_ && harvest_at_shutdown_ &&
            !stop_.load(std::memory_order_acquire)) {
            try {
                harvest_telemetry();
            } catch (...) {
            }
        }
        stop_.store(true, std::memory_order_release);
        const std::vector<std::byte> bye =
            pack_envelope(worker_msg::shutdown, 0, 0, {});
        for (const auto& s : slots_) {
            const std::lock_guard lock{s->mu};
            if (!s->dead && s->fd >= 0) {
                s->outgoing.push_back(bye);
            }
            poke(*s);
        }
        for (const auto& s : slots_) {
            if (s->io.joinable()) {
                s->io.join();
            }
        }
        for (const auto& s : slots_) {
            close_quiet(s->fd);
            close_quiet(s->wake_r);
            close_quiet(s->wake_w);
            if (s->pid > 0) {
                reap(s->pid);
                s->pid = -1;
            }
            // Settle anything still pending so waiting futures never see
            // broken_promise.
            std::deque<pending_result> left;
            std::optional<std::promise<worker_telemetry>> tele;
            {
                const std::lock_guard lock{s->mu};
                left.swap(s->pending);
                tele.swap(s->telemetry_pending);
                s->dead = true;
            }
            for (pending_result& p : left) {
                p.promise.set_exception(std::make_exception_ptr(
                    transport_error{"transport shut down"}));
            }
            if (tele) {
                tele->set_exception(std::make_exception_ptr(
                    transport_error{"transport shut down"}));
            }
        }
    }

    /// Waits ~2s for a voluntary exit (it got shutdown and/or EOF), then
    /// SIGKILLs; either way the child is reaped — no zombies survive the
    /// transport.
    static void reap(pid_t pid) noexcept {
        for (int i = 0; i < 200; ++i) {
            int status = 0;
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid || (r < 0 && errno == ECHILD)) {
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }

    /// Folds one worker's harvest into this process: metric DELTAS into the
    /// global registry (the worker reset its own), trace spans and drop
    /// counts into the tracer (moved, shipped exactly once), and the cache counters' growth
    /// since that worker's previous harvest into its slot's running sum and
    /// the fleet's. Growths from a respawned process just keep adding.
    void fold_harvest(worker_telemetry t) {
        obs::telemetry_snapshot delta;
        delta.metrics = std::move(t.metrics);
        obs::metrics_registry::global().merge_snapshot(delta);
        const std::uint64_t trace_dropped = t.trace.dropped;
        obs::tracer& tracer = obs::tracer::global();
        if (tracer.enabled() &&
            (!t.trace.spans.empty() || !t.trace.thread_names.empty() ||
             t.trace.dropped != 0)) {
            tracer.add_remote_capture(std::move(t.trace));
        }
        const std::lock_guard lock{fleet_mu_};
        auto it = std::lower_bound(
            fleet_.begin(), fleet_.end(), t.worker_id,
            [](const worker_entry& e, std::uint64_t id) {
                return e.worker_id < id;
            });
        if (it == fleet_.end() || it->worker_id != t.worker_id) {
            worker_entry entry;
            entry.worker_id = t.worker_id;
            it = fleet_.insert(it, entry);
        }
        it->pid = t.pid;
        it->cache.accumulate(t.cache);
        fleet_cache_.accumulate(t.cache);
        it->trace_dropped += trace_dropped;
        it->harvests += 1;
        have_harvest_ = true;
    }

    using worker_entry = worker_fleet_telemetry::worker_entry;

    static constexpr std::chrono::seconds harvest_timeout{5};

    socket_transport_options options_;
    std::vector<std::unique_ptr<slot>> slots_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> respawns_{0};
    bool started_ = false;  ///< fleet fully constructed (ctor completed)
    bool harvest_at_shutdown_ = false;
    std::mutex harvest_mu_;  ///< serializes fleet harvest passes
    std::uint64_t harvest_seq_ = 0;  ///< under harvest_mu_
    mutable std::mutex fleet_mu_;  ///< guards the three members below
    std::vector<worker_entry> fleet_;  ///< sorted by worker_id
    bool have_harvest_ = false;
    verdict_cache_stats fleet_cache_;  ///< every slot's cache sum
};

}  // namespace

std::unique_ptr<engine_transport> make_socket_transport(
    std::size_t workers, const transport_env& env,
    const socket_transport_options& options) {
    return std::make_unique<socket_transport>(workers, env, options);
}

}  // namespace recloud
