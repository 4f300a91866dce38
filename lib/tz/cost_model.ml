type t = {
  world_switch_ns : float;
  copy_ns_per_byte : float;
  host_scale : float;
  crypto_scale : float;
}

let default =
  { world_switch_ns = 100_000.0; copy_ns_per_byte = 2.0; host_scale = 1.0; crypto_scale = 0.47 }

let free = { world_switch_ns = 0.0; copy_ns_per_byte = 0.0; host_scale = 1.0; crypto_scale = 1.0 }
let with_switch_ns ns t = { t with world_switch_ns = ns }
