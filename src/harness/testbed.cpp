#include "harness/testbed.h"

#include "base/assert.h"
#include "base/strings.h"
#include "harness/audits.h"
#include "metrics/export.h"

namespace es2 {

namespace {
// The link is the paper's back-to-back 40GbE (§VI-A); guests tick at 250 Hz.
constexpr double kLinkGbps = 40.0;
constexpr SimDuration kLinkLatency = 1500;  // ns: cable + NIC + host stack entry
constexpr int kGuestTimerHz = 250;
}  // namespace

Testbed::Testbed(TestbedOptions options) : options_(std::move(options)) {
  const TestbedOptions& o = options_;
  ES2_CHECK(o.num_vms >= 1 && o.vcpus_per_vm >= 1);
  ES2_CHECK(o.vhost_core >= 0 && o.vhost_core < o.host_cores);

  sim_ = std::make_unique<Simulator>(o.seed);
  if (o.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(o.trace);
    sim_->set_tracer(tracer_.get());
  }
  host_ = std::make_unique<KvmHost>(*sim_, o.host_cores, o.costs);
  es2_ = std::make_unique<Es2System>(*host_, o.config);

  for (int v = 0; v < o.num_vms; ++v) {
    std::vector<int> pins(static_cast<size_t>(o.vcpus_per_vm));
    for (int j = 0; j < o.vcpus_per_vm; ++j) {
      const int core = o.stack_vms ? j : v * o.vcpus_per_vm + j;
      ES2_CHECK_MSG(core < o.host_cores, "VM pinning exceeds host cores");
      pins[static_cast<size_t>(j)] = core;
    }
    Vm& vm = host_->create_vm(format("vm%d", v), pins, o.config.irq_mode());
    vm.set_timer_hz(kGuestTimerHz);
    guests_.push_back(std::make_unique<GuestOs>(vm, o.guest_params));
  }

  // Only the tested VM (VM 0) gets a paravirtual network device.
  link_ = std::make_unique<DuplexLink>(*sim_, kLinkGbps, kLinkLatency);
  peer_ = std::make_unique<PeerHost>(*sim_, link_->b_to_a);
  peer_->attach_rx(link_->a_to_b);
  worker_ = std::make_unique<VhostWorker>(*host_, "vhost-vm0", o.vhost_core);
  backend_ = std::make_unique<VhostNetBackend>(host_->vm(0), *worker_,
                                               link_->a_to_b, o.vhost_params);
  link_->b_to_a.set_receiver(
      [this](PacketPtr p) { backend_->receive_from_wire(std::move(p)); });
  // Guest-ingress link reference: rung 2 of the overload ladder pushes
  // deterministic 1-in-N shedding onto this link. Inert until the
  // frontend's livelock detector asks for it.
  backend_->set_rx_link(&link_->b_to_a);
  frontend_ = std::make_unique<VirtioNetFrontend>(*guests_[0], *backend_);
  es2_->enable_for(host_->vm(0), *backend_);
  if (o.poll_mode != PollMode::kNotify) {
    // Busy-poll dataplane: the worker spins on the rings instead of
    // sleeping on kicks. Mode goes to the worker first so the backend's
    // poll-source registration sees it.
    worker_->set_poll_mode(o.poll_mode, o.poll_interval,
                           o.adaptive_poll_budget);
    backend_->set_poll_mode(o.poll_mode);
  }

  // The recovery ledger has two clients: lifecycle fault drills and the
  // receive-livelock admission ladder (overload mitigation). Either one
  // arms it; default-off runs build none.
  if (o.faults.lifecycle_enabled() || o.guest_params.overload_mitigation) {
    recovery_log_ = std::make_unique<RecoveryLog>();
    backend_->set_recovery_log(recovery_log_.get());
  }

  if (o.faults.enabled()) {
    faults_ = std::make_unique<FaultInjector>(*sim_, o.faults);
    link_->a_to_b.set_fault_injector(faults_.get());
    link_->b_to_a.set_fault_injector(faults_.get());
    backend_->set_fault_injector(faults_.get());
    worker_->set_fault_injector(faults_.get());
    if (o.faults.spurious_irq_period > 0) {
      // Spurious vectors round-robin over the tested VM's vCPUs.
      faults_->start_spurious([this, next = 0]() mutable {
        Vm& vm = host_->vm(0);
        vm.vcpu(next).deliver_interrupt(kSpuriousFaultVector);
        next = (next + 1) % vm.num_vcpus();
      });
    }
    if (o.faults.lifecycle_enabled()) {
      backend_->arm_lifecycle_selfcheck();
      backend_->set_reset_listener([this] {
        if (es2_->redirector() != nullptr) {
          es2_->redirector()->on_device_reset(host_->vm(0));
        }
      });
      LifecycleHooks hooks;
      hooks.corrupt_ring = [this] { backend_->inject_ring_corruption(); };
      hooks.tear_avail = [this] { backend_->inject_avail_tear(); };
      hooks.wedge_handler = [this] { backend_->inject_handler_wedge(); };
      hooks.crash_worker = [this] {
        backend_->inject_worker_crash(options_.faults.worker_restart_delay);
      };
      faults_->start_lifecycle(std::move(hooks));
    }
  }

  if (o.audit) {
    auditor_ = std::make_unique<InvariantAuditor>(*sim_, o.audit_period);
    audits::register_standard_checks(*auditor_, host_->vm(0), *backend_,
                                     host_->sched());
    auditor_->start();
  }

  if (o.cpu_burn) {
    for (int v = 0; v < o.num_vms; ++v) {
      for (int j = 0; j < o.vcpus_per_vm; ++j) {
        burn_tasks_.push_back(
            std::make_unique<CpuBurnTask>(*guests_[static_cast<size_t>(v)], j));
        guests_[static_cast<size_t>(v)]->add_task(*burn_tasks_.back());
      }
    }
  }

  // World snapshot registry: every stateful component under a stable name,
  // in construction order (the hash-vector index order). Workloads append
  // themselves when they attach.
  snapshotter_.add("sim", *sim_);
  snapshotter_.add("cfs", host_->sched());
  for (int v = 0; v < host_->num_vms(); ++v) {
    Vm& vm = host_->vm(v);
    snapshotter_.add("vm/" + vm.name(), vm);
  }
  for (auto& guest : guests_)
    snapshotter_.add("guest/" + guest->vm().name(), *guest);
  snapshotter_.add("link/vm_to_peer", link_->a_to_b);
  snapshotter_.add("link/peer_to_vm", link_->b_to_a);
  snapshotter_.add("peer", *peer_);
  snapshotter_.add("vhost-worker", *worker_);
  snapshotter_.add("vhost/vm0", *backend_);
  if (es2_->redirector())
    snapshotter_.add("es2.redirector", *es2_->redirector());
  if (faults_) snapshotter_.add("fault", *faults_);
  if (recovery_log_) snapshotter_.add("recovery", *recovery_log_);

  register_all_metrics();
  if (auditor_) {
    // A failed audit reports which metrics were moving when it tripped.
    auditor_->set_context([this] { return top_metric_deltas(5); });
  }
}

std::string Testbed::top_metric_deltas(std::size_t n) const {
  return es2::top_metric_deltas(registry_, metrics_at_start_,
                                sim_->now() - started_at_, n);
}

void Testbed::register_all_metrics() {
  // Event core: scheduler-internal counters for the simulator's own queue.
  const EventQueueStats* qs = &sim_->queue().stats();
  registry_.probe("eventcore.scheduled",
                  [qs] { return static_cast<double>(qs->scheduled); });
  registry_.probe("eventcore.fired",
                  [qs] { return static_cast<double>(qs->fired); });
  registry_.probe("eventcore.cancelled",
                  [qs] { return static_cast<double>(qs->cancelled); });
  registry_.probe("eventcore.boxed_callbacks",
                  [qs] { return static_cast<double>(qs->boxed_callbacks); });
  registry_.probe("eventcore.peak_live",
                  [qs] { return static_cast<double>(qs->peak_live); });
  registry_.probe("eventcore.slabs_allocated",
                  [qs] { return static_cast<double>(qs->slabs_allocated); });
  // Timing-wheel placement counters: where events landed (near tier,
  // level-0 wheel, or past its horizon in the level-1 wheel / far heap),
  // how many past-horizon events reached level 0 or near, and how often
  // stale keys were compacted — the event-core pressure signals blame
  // reports read next to the per-stage attribution.
  registry_.probe("eventcore.near_hits",
                  [qs] { return static_cast<double>(qs->near_hits); });
  registry_.probe("eventcore.wheel_hits",
                  [qs] { return static_cast<double>(qs->wheel_hits); });
  registry_.probe("eventcore.far_hits",
                  [qs] { return static_cast<double>(qs->far_hits); });
  registry_.probe("eventcore.far_migrations",
                  [qs] { return static_cast<double>(qs->far_migrations); });
  registry_.probe("eventcore.heap_compactions",
                  [qs] { return static_cast<double>(qs->heap_compactions); });

  host_->sched().register_metrics(registry_);
  for (int v = 0; v < host_->num_vms(); ++v) {
    Vm& vm = host_->vm(v);
    for (int j = 0; j < vm.num_vcpus(); ++j)
      vm.vcpu(j).register_metrics(registry_);
  }
  for (auto& guest : guests_) guest->register_metrics(registry_);
  worker_->register_metrics(registry_);
  backend_->register_metrics(registry_);
  link_->a_to_b.register_metrics(registry_, "vm_to_peer");
  link_->b_to_a.register_metrics(registry_, "peer_to_vm");
  // Canonical drops{cause=...} family, wire rows. Always on: a drop that
  // isn't counted somewhere is a bug, and these read zero on healthy runs.
  link_->a_to_b.register_drop_metrics(registry_, "vm_to_peer");
  link_->b_to_a.register_drop_metrics(registry_, "peer_to_vm");
  if (faults_) faults_->register_metrics(registry_);
  if (recovery_log_) recovery_log_->register_metrics(registry_);

  // Epoch-hash position probes, registered only when hashing is on.
  if (options_.snapshot.hash_epochs) {
    registry_.probe("snapshot.epochs", [this] {
      return hash_log_ ? static_cast<double>(hash_log_->epochs()) : 0.0;
    });
    registry_.probe("snapshot.last_hash_hi", [this] {
      return hash_log_
                 ? static_cast<double>(hash_log_->last_world_hash() >> 32)
                 : 0.0;
    });
    registry_.probe("snapshot.last_hash_lo", [this] {
      return hash_log_ ? static_cast<double>(hash_log_->last_world_hash() &
                                             0xFFFFFFFFull)
                       : 0.0;
    });
  }
}

Testbed::~Testbed() = default;

void Testbed::start() {
  // The hash log freezes the component-name vector, so it is created here
  // — after workloads registered themselves — not in the constructor.
  if (options_.snapshot.hash_epochs && hash_log_ == nullptr) {
    hash_log_ = std::make_unique<EpochHashLog>(snapshotter_, options_.snapshot,
                                               options_.seed);
    hash_timer_ = std::make_unique<PeriodicTimer>(
        *sim_, options_.snapshot.epoch,
        [this] { hash_log_->record(sim_->now()); });
    hash_timer_->start();
  }
  // The start read of the registry: failure telemetry subtracts it.
  // Workloads have attached by now, so their instruments are in it.
  metrics_at_start_ = read_values(registry_);
  started_at_ = sim_->now();
  for (int v = 0; v < host_->num_vms(); ++v) host_->vm(v).start();
}

}  // namespace es2
