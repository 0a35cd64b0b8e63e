(** CAN — the Content-Addressable Network (Ratnasamy et al., SIGCOMM 2001).

    The third substrate geometry named by the paper (with Chord's ring and
    Pastry's prefix space): a [d]-dimensional torus [\[0,1)^d] partitioned
    into rectangular zones, one per node.  Keys hash to points; the node
    whose zone contains the point owns the key.  A joining node picks a
    random point and splits the zone that contains it in half; routing
    greedily forwards towards the target point through zone neighbours,
    giving O(d·n^(1/d)) hops.

    Departures hand the zone to a neighbour (the paper's takeover), so the
    space always stays fully covered; the merged node then owns both
    regions. *)

type t

val create : ?seed:int64 -> ?dimensions:int -> unit -> t
(** An empty overlay over [\[0,1)^dimensions] (default 2).
    @raise Invalid_argument when [dimensions < 1]. *)

val create_network : ?seed:int64 -> ?dimensions:int -> node_count:int -> unit -> t
(** Bootstrap a network of [node_count] nodes by successive joins. *)

val dimensions : t -> int
val node_count : t -> int

val join : t -> int
(** Add a node at a random point: splits the zone containing it; returns
    the new node's id. *)

val leave : t -> int -> unit
(** Graceful departure: the zone is taken over by one of its neighbours.
    @raise Not_found if no such live node.
    @raise Invalid_argument when removing the last node. *)

val point_of_key : t -> Hashing.Key.t -> float array
(** The deterministic point a key hashes to. *)

val owner_of_point : t -> float array -> int
(** The node whose zone contains the point (exact, from global knowledge). *)

val lookup : t -> ?from:int -> Hashing.Key.t -> int * int
(** Greedy neighbour routing from [from] (default: node 0's successor
    in id order) to the key's owner; returns (owner, hops). *)

val is_well_formed : t -> bool
(** Structural invariants: zones tile the space exactly (volumes sum to 1,
    no overlaps among sampled points) and the neighbour relation is
    symmetric and complete. *)

val resolver : t -> Resolver.t
(** Resolver view; node indexes are the live node ids in increasing
    order.  [replicas] is CAN's natural replica set: the owner, its zone
    neighbours in id order, then breadth-first onward through their
    neighbours until [r] nodes (or every live node) are in the set. *)
