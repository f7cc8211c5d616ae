// Service discovery: the paper's application-level scenario. Devices carry
// a service-interest tag (think "content sharing" vs "gaming"); PS codecs
// encode the tag, so physical proximity discovery doubles as application
// discovery. This example deploys two interest groups, runs both the FST
// baseline and the proposed ST protocol, and compares what each device
// learned about its same-interest neighbours.
//
//	go run ./examples/servicediscovery
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
)

func main() {
	cfg := core.PaperConfig(50, 7)
	cfg.Services = 2 // two interest groups, assigned round-robin

	for _, proto := range []core.Protocol{core.FST{}, core.ST{}} {
		env, err := core.NewEnv(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := proto.Run(env)
		fmt.Printf("=== %s ===\n", proto.Name())
		fmt.Println(res)
		fmt.Printf("same-interest pairs discovered: %.0f%%\n\n", 100*res.ServiceDiscovery)

		// Inspect one device from each group.
		for _, id := range []int{0, 1} {
			d := env.Devices[id]
			var peers []int
			for k := 0; k < d.Peers.Len(); k++ {
				if d.Peers.ServiceAt(k) {
					p, _ := d.Peers.At(k)
					peers = append(peers, p)
				}
			}
			sort.Ints(peers)
			if len(peers) > 8 {
				peers = peers[:8]
			}
			fmt.Printf("UE%d (service %d) found same-interest peers %v", id, d.Service, peers)
			if len(peers) > 0 {
				if rssi, ok := d.MeanRSSITo(peers[0]); ok {
					fmt.Printf("; link to UE%d averages %v", peers[0], rssi)
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
