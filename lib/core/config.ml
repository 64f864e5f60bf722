type propagation = Eager | Lazy

type t = {
  disk_logging : bool;
  log_mode : Lbc_wal.Command.log_mode;
  propagation : propagation;
  multicast : bool;
  charge_costs : bool;
  repair : bool;
  lease_timeout : float;
  flight : bool;
  flight_ring_bytes : int;
}

let default =
  {
    disk_logging = true;
    log_mode = Lbc_wal.Command.Value;
    propagation = Eager;
    multicast = false;
    charge_costs = false;
    repair = false;
    lease_timeout = 10_000.0;
    flight = true;
    flight_ring_bytes = 65536;
  }

let measured = { default with disk_logging = false; charge_costs = true }
let fault_tolerant = { default with repair = true }
