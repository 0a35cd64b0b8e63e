module Index = Bib.Bib_index
module Resolver = Dht.Resolver

type t = {
  pairs : int;
  render_ns : float;
  render_words : float;
  key_ns : float;
  key_words : float;
  responsible_ns : float;
  responsible_words : float;
  replicas_ns : float;
  replicas_words : float;
  mismatches : int;
      (** Pairs whose replayed primary differs from the node the walk
          contacted. *)
}

(* Replica sets are asked for at the repo's default replication factor
   (three), the size whose cost the substrates differ most on. *)
let replica_count = 3

(* Mean wall time and minor words of [f i] over [0, n). *)
let per_call n f =
  let w0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  for i = 0 to n - 1 do
    f i
  done;
  let t1 = Spans.now_ns () in
  let w1 = Gc.minor_words () in
  let n = float_of_int (max n 1) in
  (float_of_int (t1 - t0) /. n, (w1 -. w0) /. n)

(* Time each layer's public function on the run's own (query, node)
   pairs, against the run's populated index and resolver. *)
let run index paths =
  let pairs = Array.of_list (List.concat paths) in
  let n = Array.length pairs in
  let queries = Array.map fst pairs and nodes = Array.map snd pairs in
  let resolver = Index.resolver index in
  let render_ns, render_words =
    per_call n (fun i ->
        ignore (Sys.opaque_identity (Bib.Bib_query.to_string queries.(i))))
  in
  let key_ns, key_words =
    per_call n (fun i -> ignore (Sys.opaque_identity (Index.key_of_query queries.(i))))
  in
  let keys = Array.map Index.key_of_query queries in
  let primary = Array.make n (-1) in
  let responsible_ns, responsible_words =
    per_call n (fun i -> primary.(i) <- Resolver.responsible resolver keys.(i))
  in
  let r = min replica_count (Resolver.node_count resolver) in
  let buf = Stdx.Arena.Int_buf.create ~capacity:r () in
  let replicas_ns, replicas_words =
    per_call n (fun i -> Resolver.replicas_into resolver keys.(i) r buf)
  in
  let mismatches = ref 0 in
  Array.iteri (fun i p -> if p <> nodes.(i) then incr mismatches) primary;
  {
    pairs = n;
    render_ns;
    render_words;
    key_ns;
    key_words;
    responsible_ns;
    responsible_words;
    replicas_ns;
    replicas_words;
    mismatches = !mismatches;
  }
