#include "net/chaos_proxy.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

namespace mpc::net {

ChaosProxy::ChaosProxy(std::string listen_path, std::string target_path,
                       ChaosOptions options)
    : listen_path_(std::move(listen_path)),
      target_path_(std::move(target_path)),
      options_(options) {}

ChaosProxy::~ChaosProxy() { Stop(); }

void ChaosProxy::UpdateOptions(ChaosOptions options) {
  std::lock_guard<std::mutex> lock(options_mu_);
  options_ = options;
}

ChaosOptions ChaosProxy::CurrentOptions() const {
  std::lock_guard<std::mutex> lock(options_mu_);
  return options_;
}

Status ChaosProxy::Start() {
  Result<Socket> listener = Socket::Listen(listen_path_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (stopping_.exchange(true)) return;
  // The accept loop and the pump wait in short polls and check
  // stopping_, so the thread ends by itself. Only then is the listener
  // closed: closing it under a waiting Accept races on its descriptor.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
}

void ChaosProxy::AcceptLoop() {
  // One connection at a time: the RemoteCluster serializes per-site
  // traffic anyway, and serial handling keeps fault injection offsets
  // deterministic.
  while (!stopping_.load()) {
    Result<Socket> client = listener_.Accept(/*timeout_ms=*/250);
    if (!client.ok()) {
      if (stopping_.load()) return;
      continue;  // timeout or transient accept error: keep listening
    }
    Result<Socket> target = Socket::Connect(target_path_);
    if (!target.ok()) continue;  // worker down: drop the client
    Pump(std::move(*client), std::move(*target));
  }
}

void ChaosProxy::Pump(Socket client, Socket target) {
  // Bidirectional byte pump with fault injection on the reply direction
  // (target -> client). Runs until either side closes or a fault cuts
  // the stream.
  std::vector<char> buf(64 * 1024);
  while (!stopping_.load()) {
    struct pollfd fds[2];
    fds[0] = {client.fd(), POLLIN, 0};
    fds[1] = {target.fd(), POLLIN, 0};
    const int n = ::poll(fds, 2, 100);
    if (n < 0 && errno != EINTR) return;
    if (n <= 0) continue;

    if (fds[0].revents != 0) {
      // Request direction: transparent.
      const ssize_t got = ::recv(client.fd(), buf.data(), buf.size(), 0);
      if (got <= 0) return;
      if (!target.SendAll(buf.data(), static_cast<size_t>(got)).ok()) return;
    }
    if (fds[1].revents != 0) {
      const ssize_t got = ::recv(target.fd(), buf.data(), buf.size(), 0);
      if (got <= 0) return;
      size_t len = static_cast<size_t>(got);
      const size_t offset = reply_bytes_.load();
      const ChaosOptions opts = CurrentOptions();
      if (opts.delay_reply_ms > 0) {
        ::usleep(static_cast<useconds_t>(opts.delay_reply_ms * 1000));
      }
      if (opts.corrupt_reply_at != SIZE_MAX &&
          opts.corrupt_reply_at >= offset &&
          opts.corrupt_reply_at < offset + len) {
        buf[opts.corrupt_reply_at - offset] ^=
            static_cast<char>(opts.corrupt_mask);
      }
      bool cut = false;
      if (opts.truncate_reply_after != SIZE_MAX &&
          offset + len >= opts.truncate_reply_after) {
        // Forward only up to the cut point, then tear the stream.
        len = opts.truncate_reply_after > offset
                  ? opts.truncate_reply_after - offset
                  : 0;
        cut = true;
      }
      if (len > 0) {
        reply_bytes_.fetch_add(len);
        if (!client.SendAll(buf.data(), len).ok()) return;
      }
      if (cut) return;  // both sockets close on scope exit
    }
  }
}

}  // namespace mpc::net
