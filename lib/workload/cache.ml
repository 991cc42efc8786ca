open Aa_numerics
open Aa_utility

type profile = {
  label : string;
  base_cpi : float;
  mpki_peak : float;
  mpki_floor : float;
  locality : float;
  miss_penalty : float;
}

let mpki p c = p.mpki_floor +. ((p.mpki_peak -. p.mpki_floor) *. exp (-.c /. p.locality))
let ipc p c = 1.0 /. (p.base_cpi +. (mpki p c *. p.miss_penalty /. 1000.0))

let utility ?(resolution = 128) ~cache p =
  let xs = Util.linspace 0.0 cache resolution in
  let xs, ys = Convex.upper_envelope xs (Array.map (ipc p) xs) in
  Utility.of_plc (Plc.of_arrays ~xs ~ys)

let streaming label =
  {
    label;
    base_cpi = 0.8;
    mpki_peak = 40.0;
    mpki_floor = 35.0;
    locality = 0.5;
    miss_penalty = 200.0;
  }

let cache_friendly label =
  {
    label;
    base_cpi = 0.6;
    mpki_peak = 15.0;
    mpki_floor = 0.5;
    locality = 0.8;
    miss_penalty = 200.0;
  }

let cache_hungry label =
  {
    label;
    base_cpi = 0.7;
    mpki_peak = 60.0;
    mpki_floor = 2.0;
    locality = 4.0;
    miss_penalty = 200.0;
  }

let random rng label =
  let base = [| streaming; cache_friendly; cache_hungry |] in
  let p = base.(Rng.int rng 3) label in
  let jitter lo hi = Rng.uniform rng ~lo ~hi in
  let mpki_peak = p.mpki_peak *. jitter 0.7 1.3 in
  {
    p with
    base_cpi = p.base_cpi *. jitter 0.8 1.2;
    mpki_peak;
    (* the floor can never exceed the no-cache miss rate *)
    mpki_floor = Float.min mpki_peak (p.mpki_floor *. jitter 0.7 1.3);
    locality = p.locality *. jitter 0.7 1.3;
  }

let instance ?resolution ~cores ~cache profiles =
  let utilities = Array.map (fun p -> utility ?resolution ~cache p) profiles in
  Aa_core.Instance.create ~servers:cores ~capacity:cache utilities
