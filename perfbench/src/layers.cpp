#include "layers.hpp"

namespace perfbench {

CallCounts& CallCounts::operator+=(const CallCounts& o) {
  calls += o.calls;
  blocking_calls += o.blocking_calls;
  bytes += o.bytes;
  computes += o.computes;
  return *this;
}

void CallCounter::on_alltoallv(std::vector<std::int64_t> send_bytes,
                               std::vector<std::int64_t>) {
  std::uint64_t total = 0;
  for (const std::int64_t b : send_bytes) {
    if (b > 0) total += static_cast<std::uint64_t>(b);
  }
  blocking(total);
}

}  // namespace perfbench
