type propagation = Eager | Lazy

type t = {
  coalesce : Lbc_rvm.Range_tree.policy;
  disk_logging : bool;
  flush_on_commit : bool;
  range_header_size : int;
  log_mode : Lbc_wal.Command.log_mode;
  propagation : propagation;
  multicast : bool;
  charge_costs : bool;
  repair : bool;
  repair_timeout : float;
  repair_retries : int;
  lease_timeout : float;
  group_commit : bool;
  group_commit_max : int;
  group_commit_delay : float;
  ckpt_slice_bytes : int;
  ckpt_slice_interval : float;
  ckpt_gossip_delay : float;
  flight : bool;
  flight_ring_bytes : int;
}

let default =
  {
    coalesce = Lbc_rvm.Range_tree.Optimized;
    disk_logging = true;
    flush_on_commit = true;
    range_header_size = Lbc_wal.Record.rvm_disk_header_size;
    log_mode = Lbc_wal.Command.Value;
    propagation = Eager;
    multicast = false;
    charge_costs = false;
    repair = false;
    repair_timeout = 2_000.0;
    repair_retries = 8;
    lease_timeout = 10_000.0;
    group_commit = false;
    group_commit_max = 8;
    group_commit_delay = 100.0;
    ckpt_slice_bytes = 4096;
    ckpt_slice_interval = 50.0;
    ckpt_gossip_delay = 500.0;
    flight = true;
    flight_ring_bytes = 65536;
  }

let measured = { default with disk_logging = false; charge_costs = true }
let fault_tolerant = { default with repair = true }
