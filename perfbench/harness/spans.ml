type layer =
  | Setup
  | Session
  | Churn
  | Deliver
  | Next_event
  | Walk_start
  | Walk_step
  | Lookup
  | Install
  | Tally
  | Flush
  | Report

let layers =
  [|
    Setup; Session; Churn; Deliver; Next_event; Walk_start; Walk_step; Lookup;
    Install; Tally; Flush; Report;
  |]

let layer_index = function
  | Setup -> 0
  | Session -> 1
  | Churn -> 2
  | Deliver -> 3
  | Next_event -> 4
  | Walk_start -> 5
  | Walk_step -> 6
  | Lookup -> 7
  | Install -> 8
  | Tally -> 9
  | Flush -> 10
  | Report -> 11

let layer_count = Array.length layers

let layer_name = function
  | Setup -> "runner.setup"
  | Session -> "session"
  | Churn -> "churn.advance"
  | Deliver -> "rpc.deliver"
  | Next_event -> "workload.next_event"
  | Walk_start -> "walk.start"
  | Walk_step -> "walk.step"
  | Lookup -> "index.lookup"
  | Install -> "cache.install"
  | Tally -> "tally.record"
  | Flush -> "rpc.flush"
  | Report -> "runner.report"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [Gc.minor_words] is an unboxed external, so reading it at a span
   boundary allocates nothing and per-layer word counts stay exact. *)
let minor_words () = int_of_float (Gc.minor_words ())

(* Columns start above the minor-heap size limit for a single block
   (256 words) and grow by doubling, so the recorder's own storage is
   allocated on the major heap and never shows up in minor words. *)
let initial_capacity = 1 lsl 16

type t = {
  mutable len : int;
  mutable layer : int array;
  mutable session : int array;
  mutable parent : int array;
  mutable start_ns : int array;
  mutable stop_ns : int array;
  mutable words0 : int array;
  mutable words1 : int array;
  mutable open_span : int;
  mutable current_session : int;
}

let create () =
  let col () = Array.make initial_capacity 0 in
  {
    len = 0;
    layer = col ();
    session = col ();
    parent = col ();
    start_ns = col ();
    stop_ns = col ();
    words0 = col ();
    words1 = col ();
    open_span = -1;
    current_session = 0;
  }

let grow t =
  let cap = 2 * Array.length t.layer in
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.layer <- widen t.layer;
  t.session <- widen t.session;
  t.parent <- widen t.parent;
  t.start_ns <- widen t.start_ns;
  t.stop_ns <- widen t.stop_ns;
  t.words0 <- widen t.words0;
  t.words1 <- widen t.words1

let set_session t id = t.current_session <- id

let enter t layer =
  if t.len = Array.length t.layer then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.layer.(id) <- layer_index layer;
  t.session.(id) <- t.current_session;
  t.parent.(id) <- t.open_span;
  t.open_span <- id;
  t.words0.(id) <- minor_words ();
  t.start_ns.(id) <- now_ns ();
  id

let leave t id =
  t.stop_ns.(id) <- now_ns ();
  t.words1.(id) <- minor_words ();
  t.open_span <- t.parent.(id)

(* Optional-recorder helpers for the driver's hot loop: a plain match,
   no closure, so an untraced run pays one branch per boundary. *)
let enter_opt sp layer = match sp with None -> -1 | Some t -> enter t layer
let leave_opt sp id = match sp with None -> () | Some t -> leave t id

type layer_stats = {
  calls : int;
  total_ns : int;
  self_ns : int;
  total_words : int;
  self_words : int;
}

type summary = {
  per_layer : layer_stats array;  (** Indexed by {!layer_index}. *)
  self_ns_sum : int;  (** Summed self time of every span. *)
  lookup_ns : int array;  (** Every [index.lookup] span's duration. *)
}

let summarize t =
  let n = t.len in
  let child_ns = Array.make (max n 1) 0 and child_words = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (t.stop_ns.(i) - t.start_ns.(i));
      child_words.(p) <- child_words.(p) + (t.words1.(i) - t.words0.(i))
    end
  done;
  let calls = Array.make layer_count 0
  and total_ns = Array.make layer_count 0
  and self_ns = Array.make layer_count 0
  and total_words = Array.make layer_count 0
  and self_words = Array.make layer_count 0 in
  let self_sum = ref 0 and lookups = ref [] in
  let lookup_layer = layer_index Lookup in
  for i = 0 to n - 1 do
    let l = t.layer.(i) in
    let dur = t.stop_ns.(i) - t.start_ns.(i)
    and words = t.words1.(i) - t.words0.(i) in
    calls.(l) <- calls.(l) + 1;
    total_ns.(l) <- total_ns.(l) + dur;
    self_ns.(l) <- self_ns.(l) + (dur - child_ns.(i));
    total_words.(l) <- total_words.(l) + words;
    self_words.(l) <- self_words.(l) + (words - child_words.(i));
    self_sum := !self_sum + (dur - child_ns.(i));
    if l = lookup_layer then lookups := dur :: !lookups
  done;
  {
    per_layer =
      Array.init layer_count (fun l ->
          {
            calls = calls.(l);
            total_ns = total_ns.(l);
            self_ns = self_ns.(l);
            total_words = total_words.(l);
            self_words = self_words.(l);
          });
    self_ns_sum = !self_sum;
    lookup_ns = Array.of_list !lookups;
  }

let span_count t = t.len
let stats s layer = s.per_layer.(layer_index layer)
