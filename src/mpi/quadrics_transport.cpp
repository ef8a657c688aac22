#include "mpi/quadrics_transport.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace icsim::mpi {

std::uint32_t QuadricsTransport::trace_component() {
  if (trace_id_ == 0) {
    trace_id_ = engine_.tracer().register_component(
        trace::Category::mpi, "rank" + std::to_string(rank_));
  }
  return trace_id_;
}

void QuadricsTransport::post_send(const SendArgs& args) {
  const sim::Time t0 = engine_.now();
  charge(cfg_.o_send);
  // Snapshot the payload: the NIC DMA engine reads the user buffer directly
  // (zero copy — no host memory-bus charge); the snapshot is only for data
  // fidelity inside the simulator.
  auto payload = std::make_shared<std::vector<std::byte>>(
      args.data, args.data + args.bytes);
  auto req = args.req;
  nic_.tx(rank_, args.dst, args.tag, args.context, std::move(payload),
          args.bytes, [req] { req->finish(); });
  ICSIM_TRACE_WITH(engine_, tr) {
    tr.span(trace::Category::mpi, trace_component(), "send",
            t0, engine_.now());
  }
}

void QuadricsTransport::post_recv(const RecvArgs& args) {
  const sim::Time t0 = engine_.now();
  charge(cfg_.o_recv);
  auto req = args.req;
  std::byte* const dst = args.data;
  const std::size_t capacity = args.capacity;
  nic_.rx(rank_, args.src, args.tag, args.context,
          [req, dst, capacity](const elan::RxStatus& st) {
            if (st.bytes > capacity) {
              throw std::runtime_error(
                  "MPI truncation: message larger than recv buffer");
            }
            if (st.bytes > 0) {
              std::memcpy(dst, st.payload->data(), st.bytes);
            }
            req->finish(Status{st.src_rank, st.tag, st.bytes});
          });
  ICSIM_TRACE_WITH(engine_, tr) {
    tr.span(trace::Category::mpi, trace_component(), "recv.post",
            t0, engine_.now());
  }
}

void QuadricsTransport::wait(RequestState& req) {
  if (!req.complete) {
    wait_with_watchdog(req, cfg_.watchdog_timeout, watchdog_timeouts_);
  }
  charge(cfg_.o_complete);
}

}  // namespace icsim::mpi
