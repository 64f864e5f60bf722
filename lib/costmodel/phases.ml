type t = {
  detect : float;
  collect : float;
  network : float;
  apply : float;
  disk : float;
}

let zero = { detect = 0.0; collect = 0.0; network = 0.0; apply = 0.0; disk = 0.0 }

let add a b =
  {
    detect = a.detect +. b.detect;
    collect = a.collect +. b.collect;
    network = a.network +. b.network;
    apply = a.apply +. b.apply;
    disk = a.disk +. b.disk;
  }

let total t = t.detect +. t.collect +. t.network +. t.apply +. t.disk

let detect v = { zero with detect = v }
let collect v = { zero with collect = v }
let network v = { zero with network = v }
let apply v = { zero with apply = v }
let disk v = { zero with disk = v }

let pp_ms ppf t =
  let ms v = v /. 1000.0 in
  Format.fprintf ppf
    "%8.2f ms  (detect %7.2f | collect %7.2f | net %7.2f | apply %7.2f | disk %7.2f)"
    (ms (total t)) (ms t.detect) (ms t.collect) (ms t.network) (ms t.apply)
    (ms t.disk)
