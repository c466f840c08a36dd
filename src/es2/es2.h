// ES2 system facade: applies one Es2Config to a host/VM/device trio.
//
// This is the public entry point a deployment uses:
//
//   es2::Es2Config cfg = es2::Es2Config::pi_h_r();
//   es2::Es2System es2sys(host, cfg);
//   Vm& vm = host.create_vm("vm0", pins, cfg.irq_mode());
//   ... build guest + backend ...
//   es2sys.enable_for(vm, backend);   // hybrid quota + redirection tracking
//
// Everything ES2 does is host-side: the guest model is untouched (the
// paper's "no guest modification" property).
#pragma once

#include <vector>

#include "es2/config.h"
#include "es2/redirect.h"
#include "virtio/vhost.h"
#include "vm/vm.h"

namespace es2 {

class Es2System {
 public:
  Es2System(KvmHost& host, Es2Config config);

  const Es2Config& config() const { return config_; }

  /// Applies the configured components to a VM and its paravirtual device:
  /// Hybrid I/O Handling (paper §IV-B) installs Algorithm 1's quota on the
  /// device's virtqueue handlers, and redirection starts tracking the VM.
  void enable_for(Vm& vm, VhostNetBackend& backend);

  /// Present only when redirection is on.
  InterruptRedirector* redirector() { return redirector_.get(); }

 private:
  KvmHost& host_;
  Es2Config config_;
  std::unique_ptr<InterruptRedirector> redirector_;
};

}  // namespace es2
