(** The key-to-node service every substrate provides.

    The indexing layer only needs one operation from the P2P substrate: given
    a key, find the live node responsible for it (Section III-A).  A resolver
    packages that operation together with the routing cost of answering it,
    so the simulation can charge substrate hops when it wants to (the paper
    treats them as orthogonal; the ablation benches do not).

    {b Snapshot.}  Every substrate builds its resolver from the live
    membership at that moment: node indexes are positions in that
    membership, and static, Chord, Pastry and Kademlia resolvers answer
    [responsible] and [replicas] from it alone.  After joins or leaves,
    build a new resolver.  The simulations build theirs once, after
    bootstrap; churn there acts on node liveness, not on overlay
    membership.

    {b Per-call cost} for [n] nodes and [r] replicas:
    - static, Chord, Pastry: [responsible] is a binary search over the
      sorted identifiers, [replicas_into] adds [r] ring steps;
    - Kademlia: [responsible] descends an XOR prefix trie over the sorted
      identifiers, about [log n] levels of a prefix comparison and a
      binary search each; [replicas_into] visits [r] of its leaves;
    - CAN: [responsible] scans the zones, O(n); [replicas_into] walks
      zone neighbours breadth-first, O(n) per visited node;
    - [route_hops] runs a real overlay lookup everywhere but static. *)

type t = {
  node_count : int;
  responsible : Hashing.Key.t -> int;
      (** Index of the live node responsible for the key. *)
  route_hops : Hashing.Key.t -> int;
      (** Number of overlay hops a lookup of this key takes. *)
  replicas : Hashing.Key.t -> int -> int list;
      (** [replicas key r]: the [r] distinct nodes that hold the key's
          replicas, primary first — on ring substrates, the responsible node
          followed by its successors (Chord/DHash-style replica placement).
          Shorter than [r] when the network is smaller. *)
  replicas_into : Hashing.Key.t -> int -> Stdx.Arena.Int_buf.t -> unit;
      (** [replicas_into key r buf]: the same replica set, written into
          [buf] (cleared first) instead of a fresh list — the hot-path
          variant; must agree element-for-element with [replicas]. *)
}

val responsible : t -> Hashing.Key.t -> int
val route_hops : t -> Hashing.Key.t -> int
val node_count : t -> int
val replicas : t -> Hashing.Key.t -> int -> int list

val replicas_into : t -> Hashing.Key.t -> int -> Stdx.Arena.Int_buf.t -> unit
(** Allocation-free {!replicas}: fills the scratch buffer in placement
    order. *)

val ring_replicas : node_count:int -> primary:int -> int -> int list
(** Helper for substrates whose node indexes are ring-ordered: [primary]
    and its [r - 1] successors, wrapping. *)

val ring_replicas_into :
  node_count:int -> primary:int -> int -> Stdx.Arena.Int_buf.t -> unit
(** {!ring_replicas} into a scratch buffer (cleared first). *)

val list_of_into :
  (Hashing.Key.t -> int -> Stdx.Arena.Int_buf.t -> unit) ->
  Hashing.Key.t ->
  int ->
  int list
(** The list view of a [replicas_into] function, for substrates that
    compute their replica set into a buffer (Kademlia's XOR trie, CAN's
    breadth-first zone walk): [replicas] written this way agrees with
    [replicas_into] by construction. *)
