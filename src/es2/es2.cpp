#include "es2/es2.h"

#include "base/assert.h"

namespace es2 {

Es2System::Es2System(KvmHost& host, Es2Config config)
    : host_(host), config_(config) {
  if (config_.redirection) {
    redirector_ = std::make_unique<InterruptRedirector>(
        host, config_.policy, host.sim().seed(), config_.per_queue_affinity);
  }
}

void Es2System::enable_for(Vm& vm, VhostNetBackend& backend) {
  ES2_CHECK_MSG(vm.irq_mode() == config_.irq_mode(),
                "VM interrupt mode does not match the ES2 configuration");
  if (config_.hybrid_io) {
    backend.set_poll_quota(config_.poll_quota);
  }
  if (config_.redirection) {
    redirector_->track(vm);
  }
}

}  // namespace es2
