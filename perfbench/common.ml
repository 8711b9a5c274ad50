(* Clock, order statistics, spans and result output shared by the
   workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* --- order statistics ---------------------------------------------------- *)

(* Nearest-rank percentile of the first [n] samples, [p] in [0, 100]. *)
let percentile (a : float array) n p =
  if n = 0 then nan
  else begin
    let s = Array.sub a 0 n in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median_of l =
  let a = Array.of_list l in
  percentile a (Array.length a) 50.0

(* "min / median / max" of the per-pass values, for the info lines. *)
let spread_of l =
  match List.sort Float.compare l with
  | [] -> "-"
  | s -> Printf.sprintf "%.6g / %.6g / %.6g" (List.hd s) (median_of l) (List.nth s (List.length s - 1))

(* The tail is the highest percentile of the ladder, at most [cap], that
   leaves at least ten samples beyond it.  Each workload fixes [cap] to
   the level one pass always supports, so the reported percentile does
   not change between runs of different lengths.  With fewer than eleven
   samples no percentile qualifies and the maximum is reported. *)
let tail_level ~cap n =
  let beyond p = float_of_int n *. (100.0 -. p) /. 100.0 in
  match List.find_opt (fun p -> p <= cap && beyond p >= 10.0)
          [ 99.99; 99.9; 99.0; 90.0 ] with
  | Some p -> p
  | None -> 100.0

(* A growable float sample buffer; preallocate it before the memory
   baseline so recording a sample never allocates on the timed path. *)
type samples = { mutable data : float array; mutable len : int }

let samples cap = { data = Array.make (max 16 cap) 0.0; len = 0 }

let push s v =
  if s.len >= Array.length s.data then begin
    let d = Array.make (2 * Array.length s.data) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let sample_pct s p = percentile s.data s.len p

(* --- calibration ----------------------------------------------------- *)

(* The host this benchmark was built on, a 2-core Intel Xeon VM shared
   with other tenants, slows memory-bound code by up to 2.5x in phases
   that last from seconds to over a minute, with process CPU time equal
   to wall time; an arithmetic loop stays within 5%.  A phase can cover a
   whole run, so no estimator inside one run removes it.  So every
   end-to-end time is calibrated: while the workload runs, a timer signal
   every [period] seconds runs a probe of the host's memory speed, and a
   time [t] measured while the probe read [p] ns on average is reported
   as [t * ref_ns / p], the time it would take on a host where the probe
   reads [ref_ns].  The probe uses no code of the repository and never
   allocates, so a change to the program or its heap cannot move it; the
   time it takes is taken out of every measured interval.  perfbench/
   README.md gives the evidence. *)
module Calib = struct
  let ref_ns = 1.0e6
  let period = 0.05
  let sweeps = 3
  let rmw_ops = 70_000

  (* Two 4 MiB arrays, twice a core's L2. *)
  let seq = ref [||]
  let rnd = ref [||]

  (* The last [window] probe readings, and running totals. *)
  let window = 4
  let recent = Array.make window ref_ns
  let count = ref 0
  let sum = ref 0
  let paused = ref 0

  (* [ref_ns] over the mean of the last [window] readings. *)
  let current = ref 1.0

  let sweep a r =
    for i = 0 to Array.length a - 1 do
      Array.unsafe_set a i (i + r)
    done

  (* The probe reads the geometric mean of two timings: sequential write
     sweeps over one array, after an untimed sweep that brings it back
     into the cache whatever the workload evicted, and read-modify-writes
     at pseudo-random places in the other.  Alone, the sweeps swing about
     1.3 times as far as the workloads do (in log terms) and the random
     accesses about 0.8 to 0.95 times as far; their geometric mean swung
     as far as param-mutex's and fleet-saga's passes over a 7- and a
     4-minute run. *)
  let probe () =
    let a = !seq and b = !rnd in
    let t0 = now_ns () in
    sweep a 0;
    let t1 = now_ns () in
    for r = 1 to sweeps do
      sweep a r
    done;
    let t2 = now_ns () in
    let x = ref 12345 and mask = Array.length b - 1 in
    for _ = 1 to rmw_ops do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let k = !x land mask in
      Array.unsafe_set b k (Array.unsafe_get b k + 1)
    done;
    let t3 = now_ns () in
    let d = int_of_float (Float.sqrt (float_of_int (t2 - t1) *. float_of_int (t3 - t2))) in
    paused := !paused + (t3 - t0);
    recent.(!count mod window) <- float_of_int d;
    incr count;
    sum := !sum + d;
    current := ref_ns *. float_of_int window /. Array.fold_left ( +. ) 0.0 recent

  (* Allocate the arrays and fill the window (the first probe, which
     faults the arrays in, drops out of it). *)
  let init () =
    if Array.length !seq = 0 then begin
      seq := Array.make (1 lsl 19) 0;
      rnd := Array.make (1 lsl 19) 0;
      for _ = 0 to window do
        probe ()
      done
    end

  (* Start the timer; call before any memory baseline. *)
  let start () =
    init ();
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigalrm Sys.Signal_default

  (* An interval measured as [p0 = !paused; t0 = now_ns ()] ...
     [t1 = now_ns ()]: its length without the probes that ran inside it.
     A probe between the two reads at the start is taken out although it
     was not timed, hence the clamp. *)
  let net ~p0 ~t0 t1 = max 0 (t1 - t0 - (!paused - p0))

  (* The factor over the probes run since [count] read [n0] and [sum]
     read [s0]: their mean when there are at least [window] of them, the
     latest [window] otherwise. *)
  let factor_since n0 s0 =
    let n = !count - n0 in
    if n >= window then ref_ns *. float_of_int n /. float_of_int (!sum - s0) else !current
end

(* Calibrated seconds of the first [lat.len] samples. *)
let cal_seconds (lat : samples) (fac : samples) =
  let t = ref 0.0 in
  for i = 0 to lat.len - 1 do
    t := !t +. (lat.data.(i) *. fac.data.(i))
  done;
  !t /. 1e9

(* The interquartile mean of the first [n] samples: the mean of those
   between the 25th and the 75th percentile.  It stands for the typical
   latency instead of the median because fleet-saga's inputs are half
   prepares and half commits, which cost about 1 and 2 us: its median
   falls exactly where the two meet and jumps between them from run to
   run. *)
let iqm (a : float array) n =
  if n = 0 then nan
  else begin
    let s = Array.sub a 0 n in
    Array.sort Float.compare s;
    let lo = n / 4 and hi = max (n / 4 + 1) (n - (n / 4)) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int (hi - lo)
  end

(* The estimator: each pass's rate, interquartile mean and tail,
   calibrated and raw, and the median of each over the passes.  [lat]
   holds each input's latency in ns without the probes, [fac] its
   calibration factor. *)
module Plain = struct
  type t = {
    mutable rate : float list;
    mutable mid : float list;
    mutable tail : float list;
    mutable raw_rate : float list;
    mutable raw_mid : float list;
    mutable raw_p50 : float list;
    mutable raw_tail : float list;
  }

  let create () =
    { rate = []; mid = []; tail = []; raw_rate = []; raw_mid = []; raw_p50 = []; raw_tail = [] }

  let offer t ~cap (lat : samples) (fac : samples) =
    let n = lat.len in
    let cal = Array.init n (fun i -> lat.data.(i) *. fac.data.(i)) in
    let total a = Array.fold_left ( +. ) 0.0 (Array.sub a 0 n) in
    let level = tail_level ~cap n in
    t.rate <- (float_of_int n *. 1e9 /. total cal) :: t.rate;
    t.mid <- iqm cal n :: t.mid;
    t.tail <- percentile cal n level :: t.tail;
    t.raw_rate <- (float_of_int n *. 1e9 /. total lat.data) :: t.raw_rate;
    t.raw_mid <- iqm lat.data n :: t.raw_mid;
    t.raw_p50 <- percentile lat.data n 50.0 :: t.raw_p50;
    t.raw_tail <- percentile lat.data n level :: t.raw_tail

  (* inputs_per_s, input_iqm_us, input_tail_us. *)
  let e2e t =
    [
      ("inputs_per_s", median_of t.rate);
      ("input_iqm_us", median_of t.mid /. 1e3);
      ("input_tail_us", median_of t.tail /. 1e3);
    ]

  let raw_rate t = median_of t.raw_rate

  let line t =
    Printf.sprintf
      "  raw (uncalibrated) medians: %.6g inputs/s, iqm %.6g us, p50 %.6g us, tail %.6g us"
      (median_of t.raw_rate) (median_of t.raw_mid /. 1e3) (median_of t.raw_p50 /. 1e3)
      (median_of t.raw_tail /. 1e3)
end

(* --- spans --------------------------------------------------------------- *)

(* In-memory span buffer: name, start, end, parent span, run id.  Spans
   beyond the capacity are counted, not kept, so a long traced run has a
   bounded footprint; the buffer is written out once, at exit. *)
module Spans = struct
  let cap = 200_000
  let names : (string, int) Hashtbl.t = Hashtbl.create 16
  let name_list = ref []

  (* Allocated on the first span, so untraced runs carry no buffer. *)
  let nm = ref [||]
  let st = ref [||]
  let en = ref [||]
  let par = ref [||]
  let run = ref [||]
  let len = ref 0
  let dropped = ref 0

  let name_id s =
    match Hashtbl.find_opt names s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length names in
        Hashtbl.add names s i;
        name_list := s :: !name_list;
        i

  (* Record a finished span; returns its id (-1 when dropped). *)
  let add ~name ~start ~stop ~parent ~run_id =
    if Array.length !nm = 0 then
      List.iter (fun a -> a := Array.make cap 0) [ nm; st; en; par; run ];
    if !len >= cap then begin
      incr dropped;
      -1
    end
    else begin
      let i = !len in
      !nm.(i) <- name;
      !st.(i) <- start;
      !en.(i) <- stop;
      !par.(i) <- parent;
      !run.(i) <- run_id;
      incr len;
      i
    end

  (* Open a span whose children are recorded before it closes: reserve
     its slot now, fill the end time later. *)
  let open_ ~name ~parent ~run_id =
    add ~name:(name_id name) ~start:(now_ns ()) ~stop:0 ~parent ~run_id

  let close i = if i >= 0 then !en.(i) <- now_ns ()

  let write path =
    let names = Array.of_list (List.rev !name_list) in
    let oc = open_out path in
    for i = 0 to !len - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"run\":%d}\n"
        i names.(!nm.(i)) !st.(i) !en.(i) !par.(i) !run.(i)
    done;
    close_out oc
end

(* --- output -------------------------------------------------------------- *)

(* Every digit of the measured value; a non-finite value (a ratio over an
   empty layer) prints as 0. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let pairs_json pairs =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (json_float v)) pairs)
  ^ "}"
